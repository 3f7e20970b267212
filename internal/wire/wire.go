// Package wire is cohortd's framed TCP protocol: the thinnest possible
// transport for streaming Cohort words between a remote tenant and the
// serving scheduler. A connection carries one session at a time.
//
// Every frame is a 1-byte type, a 4-byte big-endian payload length, and the
// payload. Open, OpenOK and Redirect payloads are fixed little-endian binary
// layouts (AppendOpen, Writer.OpenOK, AppendRedirect); Error and Done
// payloads are JSON. Data payloads are packed little-endian 64-bit
// words, matching the in-memory queue representation so the daemon can move
// them with a single copy.
//
// Conversation shape:
//
//	client                          shard
//	  Open{tenant,accel,...}  --->
//	                          <---  OpenOK{session,in_words,out_words}   (or Error)
//	  Data* / CloseSend       --->
//	                          <---  Data* ... Done{stats,err}
//
// A gateway (cluster.Gateway) answers an Open with a Redirect naming the
// tenant's candidate shards in ring order, or with an Error when no shard
// is healthy, and carries nothing else. The client then sends the same Open
// to each candidate in turn until one answers OpenOK or refuses terminally:
//
//	client                          gateway
//	  Open{tenant,...}        --->
//	                          <---  Redirect{addr,...}                   (or Error)
//
// Data flows full-duplex after OpenOK: the server streams results as blocks
// complete, while the client is still sending. The server's final frame is
// Done for a stream that ran to completion (cleanly, or retired by quota or
// shutdown — DoneReply.Err/Code say which), or Error for a session that died
// mid-stream (accelerator fault, kill).
//
// The connection closes after the final frame, with one exception: an Open
// with the reuse flag (OpenRequest.Reuse) whose session ends in a Done with
// no Code, after the server has read the client's CloseSend, leaves the
// connection open for the next Open. A Redirect ends no session, and the
// gateway keeps the connection after it whenever the Open set the flag. The
// client sets the flag on every Open, so one TCP connection serves its
// sessions one after another on each hop. This package owns that lifecycle
// for both hops, and the client package, sched.Server and cluster.Gateway
// keep no copy of it: the rule both ends apply (KeepsConn), the dialler's
// kept connections with their redial-once Open (Pool), and the serving
// end's accept, track, close and quiesce (ConnSet).
//
// A session's last results and its Done may share one write
// (Writer.WordsDone); they are still two frames, and a reader sees nothing
// different.
//
// # Shared-memory data plane
//
// A client on the same host as its shard moves session words through two
// shared-memory rings instead of Data frames (shmring). The Open's shm flag
// says the client can map a region; a shard that sees the flag on a
// loopback connection's first such Open creates one and names it in its
// OpenOK. The client maps it and answers with a Doorbell, and from then on
// every session on the connection streams through the rings:
//
//	client                          shard
//	  Open{...,shm}           --->
//	                          <---  OpenOK{session,...,ring_words,region}
//	  Doorbell (mapped)       --->
//	  Doorbell* / CloseSend   --->
//	                          <---  Doorbell* ... Done{stats,err}
//
// A Doorbell carries no payload: it wakes a peer parked on a ring. A client
// that cannot map the region sends Data frames as before, which tells the
// shard to drop it; a shard that offers nothing (a peer off the host, a
// region it could not create) gets Data frames. Either way the connection
// decides once, on its first Open, and its sessions never mix the two.
// Conn keeps the choice to itself: its Put, Words and Commit move a
// session's words the same way on either plane.
//
// Open layout (little-endian; AppendOpen):
//
//	version u8 | flags u8 (bit 0 timing, bit 1 reuse, bit 2 shm) | weight i32 |
//	quota u64 | queue_cap i32 | tenant u8-len+bytes | accel u8-len+bytes |
//	csr u16-len+bytes
//
// OpenOK layout: session u64 | in_words u32 | out_words u32, then, only in
// an offer, ring_words u32 | region u8-len+bytes. A malformed Open
// (wrong version, unknown flag bits, a field running past the payload,
// trailing bytes, a weight above MaxWeight or a queue_cap above MaxQueueCap)
// is answered with CodeBadRequest.
//
// Redirect layout: count u8 | count × addr u16-len+bytes, between one and a
// small constant number of non-empty host:port addresses, nothing after.
//
// # Hot path
//
// The Data path is built to move bulk words with no per-frame allocation and
// no joining copy:
//
//   - Conn.Put writes a Data frame with Writer.WordsN, which reinterprets
//     the word slices as their in-memory bytes on little-endian hosts (with
//     an endian-checked encode fallback elsewhere) and hands header +
//     payload segments to the kernel as one writev via net.Buffers — many
//     completed blocks coalesce into one Data frame and one syscall.
//   - Conn.Words reads a Data payload with Reader.NextData, directly into a
//     pooled word buffer (recycled through a package-wide sync.Pool), so a
//     frame costs zero allocations at steady state; Conn.Commit returns the
//     buffer once its words are taken, so idle connections pin no payload
//     memory.
//
// Writer.WordsCopy and the Words/AppendWords byte-decoders are the
// byte-at-a-time reference codec: the property tests compare the zero-copy
// path against them frame for frame.
package wire

import (
	"encoding/binary"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"syscall"

	"cohort"
)

// Type identifies a frame.
type Type byte

// Frame types. Zero is invalid so a zeroed header is caught.
const (
	Open      Type = 1 // client → server: binary OpenRequest (AppendOpen)
	OpenOK    Type = 2 // server → client: binary OpenReply (Writer.OpenOK)
	Error     Type = 3 // server → client: JSON ErrorReply, then close
	Data      Type = 4 // either direction: packed little-endian words
	CloseSend Type = 5 // client → server: end of the client's stream
	Done      Type = 6 // server → client: JSON DoneReply, final frame
	// Type 7 is retired and not to be reused: the Reader refuses it.

	// Redirect is a gateway → client binary list of the tenant's candidate
	// shard addresses in ring order (AppendRedirect), the gateway's whole
	// answer to an Open.
	Redirect Type = 8
	// Doorbell is a payload-free frame either way on a connection whose
	// sessions move words through shared-memory rings (Conn.Attach): the
	// sender published to or consumed from a ring its peer is parked on. A
	// client's first Doorbell after an OpenOK that offered a region also
	// answers the offer: the region is mapped.
	Doorbell Type = 9
)

func (t Type) String() string {
	switch t {
	case Open:
		return "open"
	case OpenOK:
		return "open-ok"
	case Error:
		return "error"
	case Data:
		return "data"
	case CloseSend:
		return "close-send"
	case Done:
		return "done"
	case Redirect:
		return "redirect"
	case Doorbell:
		return "doorbell"
	}
	return fmt.Sprintf("type(%d)", byte(t))
}

// WordBytes is the wire size of one cohort.Word.
const WordBytes = 8

// MaxFrame bounds a frame payload; Reader rejects anything larger so a
// corrupt or hostile header cannot trigger an arbitrary allocation.
const MaxFrame = 8 << 20

// MaxFrameWords is the largest word count one Data frame can carry — the
// coalescing ceiling for senders packing many blocks per frame.
const MaxFrameWords = MaxFrame / WordBytes

const headerBytes = 5

// maxRetain caps the payload scratch capacity a Reader or Writer keeps
// between frames. One oversized frame must not pin frame-sized memory on an
// idle connection for the rest of its life (thousands of idle sessions would
// each hold up to MaxFrame): anything larger is allocated one-shot and
// returned to the GC.
const maxRetain = 64 << 10

// Machine-readable error codes carried by ErrorReply.Code and DoneReply.Code
// so clients can map server-side failures to typed errors instead of string
// matching (or, worse, a bare connection reset).
const (
	// CodeAdmission: the scheduler's admission control rejected the Open
	// (MaxSessions live sessions). Retryable — capacity frees as sessions
	// retire.
	CodeAdmission = "admission"
	// CodeUnknownAccel: the requested accelerator is not in the catalog.
	CodeUnknownAccel = "unknown-accel"
	// CodeBadRequest: the Open was malformed (bad layout, bad CSR, invalid
	// geometry).
	CodeBadRequest = "bad-request"
	// CodeKilled: the session was forcibly torn down (operator kill, dead
	// peer) before its stream finished.
	CodeKilled = "killed"
	// CodeQuota: the session consumed its block quota and was retired.
	CodeQuota = "quota"
	// CodeFault: the session's accelerator failed terminally mid-stream;
	// results already delivered are suspect only if the fault corrupted data
	// silently (checksum at the application layer).
	CodeFault = "fault"
	// CodeClosed: the server is shutting down.
	CodeClosed = "closed"
	// CodeDraining: the daemon is draining for a rolling restart — it has
	// stopped admitting sessions but is still flushing the ones in flight.
	// Immediately retryable on another shard: unlike CodeAdmission there is
	// nothing to wait for here, the client should simply go elsewhere.
	CodeDraining = "draining"
)

// ErrorReply rejects an Open (admission control, unknown accelerator, bad
// CSR) or — mid-stream, as the final frame in place of Done — reports that
// the session died (accelerator fault, kill). The connection closes after it.
type ErrorReply struct {
	Message string `json:"message"`
	Code    string `json:"code,omitempty"` // one of the Code* constants
}

// DoneReply is the server's final word on a session: its counters and, when
// the stream did not end cleanly, why.
type DoneReply struct {
	Blocks       uint64 `json:"blocks"`
	WordsIn      uint64 `json:"words_in"`
	WordsOut     uint64 `json:"words_out"`
	DroppedWords uint64 `json:"dropped_words,omitempty"`
	Err          string `json:"err,omitempty"`
	Code         string `json:"code,omitempty"` // one of the Code* constants
	// Timing is the session's whole-life server-side stage breakdown,
	// present only when the Open requested it (OpenRequest.Timing).
	Timing *TelemetryReply `json:"timing,omitempty"`
}

// StageTiming is one pipeline stage's latency summary: sample count, exact
// mean, and log2-interpolated quantiles, in nanoseconds. Samples are whole
// scheduler quanta, taken 1-in-N.
type StageTiming struct {
	Samples uint64  `json:"samples"`
	MeanNs  float64 `json:"mean_ns"`
	P50Ns   float64 `json:"p50_ns"`
	P95Ns   float64 `json:"p95_ns"`
	P99Ns   float64 `json:"p99_ns"`
}

// Stages is the four-stage latency summary of one scope — a session, a
// tenant, or a tenant over a window — in pipeline order: input-queue wait,
// scheduler dispatch (incl. the quantum's staging copy), engine compute, and
// output-queue + socket egress. It is the one shape of every latency view:
// DoneReply.Timing, /sessions and /stats/windows (windowed and lifetime).
type Stages struct {
	Queue   StageTiming `json:"queue"`
	Sched   StageTiming `json:"sched"`
	Compute StageTiming `json:"compute"`
	Wire    StageTiming `json:"wire"`
}

// TelemetryReply is the server-side latency attribution document for one
// session: where a served block's time went once it reached the daemon,
// over the session's whole life. It rides only on the session's Done
// (DoneReply.Timing). The client's end-to-end clock minus ServerMeanNs
// approximates network + client-side time.
type TelemetryReply struct {
	Session uint64 `json:"session"`
	Stages
}

// ServerMeanNs sums the per-stage means: the expected server-resident time
// of one sampled quantum, end to end. By construction it cannot exceed the
// client-measured end-to-end latency of the same blocks (the stages are
// disjoint intervals inside that window).
func (t *TelemetryReply) ServerMeanNs() float64 {
	return t.Queue.MeanNs + t.Sched.MeanNs + t.Compute.MeanNs + t.Wire.MeanNs
}

// Writer frames outbound messages. Not safe for concurrent use; give each
// writing goroutine its own.
type Writer struct {
	w io.Writer
	// hdr holds the headers of the frames staged for one flush: a Data
	// frame and, for WordsDone, the Done after it.
	hdr [2][headerBytes]byte
	// base is the scatter-gather vector's stable backing; vecs is the view
	// handed to net.Buffers.WriteTo, which consumes it in place. Rebuilding
	// vecs from base each frame keeps the vector allocation-free even though
	// WriteTo advances the slice it is given.
	base net.Buffers
	vecs net.Buffers
	buf  []byte // fallback/reference encode scratch; retention capped at maxRetain
	// join is set for a net.Conn that is not a socket (a wrapper, a pipe):
	// net.Buffers would hand it one Write per segment, so flush joins the
	// segments into joined and makes one Write, as a socket gets one writev.
	join   bool
	joined []byte // join scratch; retention capped at maxRetain
}

// NewWriter wraps w.
func NewWriter(w io.Writer) *Writer {
	_, isConn := w.(net.Conn)
	_, isSocket := w.(syscall.Conn)
	return &Writer{w: w, base: make(net.Buffers, 0, 6), join: isConn && !isSocket}
}

// scratch returns an n-byte encode buffer, reusing the retained one when it
// fits. Buffers larger than maxRetain are one-shot so an idle Writer never
// pins a frame-sized allocation.
func (fw *Writer) scratch(n int) []byte {
	if cap(fw.buf) < n {
		b := make([]byte, n)
		if n <= maxRetain {
			fw.buf = b
		}
		return b
	}
	return fw.buf[:n]
}

// flush writes the queued header+payload vector with one writev when the
// destination is a socket (net.Buffers scatter-gather): the headers and
// every payload segment go out in a single syscall with no joining copy.
// Any other net.Conn gets the segments joined into one Write; plain
// writers get each segment in order.
func (fw *Writer) flush() error {
	var err error
	if fw.join {
		b := fw.joined[:0]
		for _, seg := range fw.base {
			b = append(b, seg...)
		}
		if cap(b) <= maxRetain {
			fw.joined = b
		}
		_, err = fw.w.Write(b)
	} else {
		fw.vecs = fw.base
		_, err = fw.vecs.WriteTo(fw.w)
	}
	// Drop payload references so the vector does not pin caller buffers.
	clear(fw.base)
	fw.base = fw.base[:0]
	return err
}

// putHeader starts the vector with a frame header.
func (fw *Writer) putHeader(t Type, n int) {
	fw.base = fw.base[:0]
	fw.appendHeader(0, t, n)
}

// appendHeader encodes a frame header into header slot i and stages it.
func (fw *Writer) appendHeader(i int, t Type, n int) {
	h := fw.hdr[i][:]
	h[0] = byte(t)
	binary.BigEndian.PutUint32(h[1:], uint32(n))
	fw.base = append(fw.base, h)
}

// Frame writes one frame. The payload may be nil. The payload is not
// retained: it is handed to the kernel (or the underlying writer) before
// Frame returns.
func (fw *Writer) Frame(t Type, payload []byte) error {
	if len(payload) > MaxFrame {
		return fmt.Errorf("wire: %s payload %d bytes exceeds MaxFrame", t, len(payload))
	}
	fw.putHeader(t, len(payload))
	if len(payload) > 0 {
		fw.base = append(fw.base, payload)
	}
	return fw.flush()
}

// JSON marshals v and writes it as a frame of type t.
func (fw *Writer) JSON(t Type, v any) error {
	payload, err := json.Marshal(v)
	if err != nil {
		return fmt.Errorf("wire: marshal %s: %w", t, err)
	}
	return fw.Frame(t, payload)
}

// Words writes ws as one Data frame. On little-endian hosts the slice is
// reinterpreted as payload bytes and written zero-copy (the caller may reuse
// ws as soon as Words returns); elsewhere it is encoded through a retained
// scratch buffer.
func (fw *Writer) Words(ws []cohort.Word) error {
	return fw.WordsN(ws)
}

// WordsN coalesces any number of word slices into a single Data frame — the
// scatter-gather entry point for senders draining a queue's ring segments or
// a batch of completed blocks. Header and segments reach the kernel as one
// writev; nothing is copied on little-endian hosts.
func (fw *Writer) WordsN(segs ...[]cohort.Word) error {
	if err := fw.stageWords(segs); err != nil {
		return err
	}
	return fw.flush()
}

// WordsDone writes segs as one Data frame and then a Done frame carrying
// the payload done, both in one writev: a session's last results and its
// final frame leave in a single syscall. A reader sees the same two frames
// WordsN and Frame(Done, done) would write.
func (fw *Writer) WordsDone(done []byte, segs ...[]cohort.Word) error {
	if len(done) > MaxFrame {
		return fmt.Errorf("wire: %s payload %d bytes exceeds MaxFrame", Done, len(done))
	}
	if err := fw.stageWords(segs); err != nil {
		return err
	}
	fw.appendHeader(1, Done, len(done))
	if len(done) > 0 {
		fw.base = append(fw.base, done)
	}
	return fw.flush()
}

// stageWords starts the vector with a Data frame carrying segs.
func (fw *Writer) stageWords(segs [][]cohort.Word) error {
	total := 0
	for _, s := range segs {
		total += len(s)
	}
	if total > MaxFrameWords {
		return fmt.Errorf("wire: data frame of %d words exceeds MaxFrame", total)
	}
	n := total * WordBytes
	fw.putHeader(Data, n)
	if !hostLittle {
		// Big-endian fallback: encode every segment into one scratch buffer.
		b := fw.scratch(n)
		off := 0
		for _, s := range segs {
			encodeWords(b[off:], s)
			off += len(s) * WordBytes
		}
		if n > 0 {
			fw.base = append(fw.base, b)
		}
		return nil
	}
	for _, s := range segs {
		if len(s) > 0 {
			fw.base = append(fw.base, wordsBytes(s))
		}
	}
	return nil
}

// WordsCopy writes ws as one Data frame through the pre-coalescing codec: a
// word-at-a-time encode into a joined header+payload buffer and a single
// Write. It is the reference codec the property tests compare the zero-copy
// path against; new code should use Words/WordsN.
func (fw *Writer) WordsCopy(ws []cohort.Word) error {
	if len(ws) > MaxFrameWords {
		return fmt.Errorf("wire: data frame of %d words exceeds MaxFrame", len(ws))
	}
	need := headerBytes + len(ws)*WordBytes
	b := fw.scratch(need)
	b[0] = byte(Data)
	binary.BigEndian.PutUint32(b[1:headerBytes], uint32(len(ws)*WordBytes))
	encodeWords(b[headerBytes:], ws)
	_, err := fw.w.Write(b)
	return err
}

// Reader deframes inbound messages. Not safe for concurrent use.
type Reader struct {
	r    io.Reader
	hdr  [headerBytes]byte
	buf  []byte     // control payload scratch; retention capped at maxRetain
	lent *wordsItem // pooled Data buffer handed out by the last NextData
}

// NewReader wraps r.
func NewReader(r io.Reader) *Reader { return &Reader{r: r} }

// readHeader reads and validates one frame header: a type in use, length
// within MaxFrame, and — checked here at deframe time, before any payload
// byte is read — Data payloads a whole number of words and Doorbells empty.
func (fr *Reader) readHeader() (Type, int, error) {
	if _, err := io.ReadFull(fr.r, fr.hdr[:]); err != nil {
		if err == io.EOF {
			return 0, 0, io.EOF
		}
		return 0, 0, fmt.Errorf("wire: read header: %w", err)
	}
	t := Type(fr.hdr[0])
	n := int(binary.BigEndian.Uint32(fr.hdr[1:]))
	if t < Open || t > Doorbell || t == 7 { // 7 is retired
		return 0, 0, fmt.Errorf("wire: invalid frame type %d", fr.hdr[0])
	}
	if t == Doorbell && n != 0 {
		return 0, 0, fmt.Errorf("wire: doorbell carries a %d-byte payload", n)
	}
	if n > MaxFrame {
		return 0, 0, fmt.Errorf("wire: %s payload %d bytes exceeds MaxFrame", t, n)
	}
	if t == Data && n%WordBytes != 0 {
		return 0, 0, fmt.Errorf("wire: data payload %d bytes is not word-aligned", n)
	}
	return t, n, nil
}

// scratch returns an n-byte payload buffer, reusing the retained one when it
// fits; oversized buffers are one-shot (see maxRetain).
func (fr *Reader) scratch(n int) []byte {
	if cap(fr.buf) < n {
		b := make([]byte, n)
		if n <= maxRetain {
			fr.buf = b
		}
		return b
	}
	return fr.buf[:n]
}

// Next reads one frame and returns its type and payload. The payload slice
// is reused by the following Next call — decode or copy before advancing.
// Returns io.EOF cleanly only on a connection closed between frames.
func (fr *Reader) Next() (Type, []byte, error) {
	t, n, err := fr.readHeader()
	if err != nil {
		return 0, nil, err
	}
	payload := fr.scratch(n)
	if _, err := io.ReadFull(fr.r, payload); err != nil {
		return 0, nil, fmt.Errorf("wire: read %s payload: %w", t, err)
	}
	return t, payload, nil
}

// NextData reads one frame like Next but decodes a Data payload into a
// pooled word buffer: the bytes are read straight into the words' memory (no
// intermediate buffer, no per-frame allocation; big-endian hosts decode in
// place). For Data frames it returns (Data, words, nil, nil); for control
// frames (t, nil, payload, nil) with payload as in Next.
//
// The word slice is valid until the next NextData or release call — the
// buffer then returns to a package-wide sync.Pool, so a reader parked on a
// quiet connection pins no payload memory once released.
func (fr *Reader) NextData() (Type, []cohort.Word, []byte, error) {
	fr.release()
	t, n, err := fr.readHeader()
	if err != nil {
		return 0, nil, nil, err
	}
	if t != Data {
		payload := fr.scratch(n)
		if _, err := io.ReadFull(fr.r, payload); err != nil {
			return 0, nil, nil, fmt.Errorf("wire: read %s payload: %w", t, err)
		}
		return t, nil, payload, nil
	}
	it := getWords(n / WordBytes)
	if n > 0 {
		b := wordsBytes(it.ws)
		if _, err := io.ReadFull(fr.r, b); err != nil {
			putWords(it)
			return 0, nil, nil, fmt.Errorf("wire: read %s payload: %w", t, err)
		}
		if !hostLittle {
			decodeWords(it.ws, b)
		}
	}
	fr.lent = it
	return Data, it.ws, nil, nil
}

// release returns the word buffer handed out by the last NextData to the
// pool, invalidating that slice. Calling it is optional — the next NextData
// releases implicitly — but a consumer that goes idle holding a large frame
// releases promptly (Conn.Commit) so the memory is reusable elsewhere.
func (fr *Reader) release() {
	if fr.lent != nil {
		putWords(fr.lent)
		fr.lent = nil
	}
}

// Unmarshal decodes a JSON control payload into v.
func Unmarshal(t Type, payload []byte, v any) error {
	if err := json.Unmarshal(payload, v); err != nil {
		return fmt.Errorf("wire: decode %s: %w", t, err)
	}
	return nil
}

// AppendWords decodes a Data payload onto dst and returns the extended
// slice. The payload must be a whole number of words.
func AppendWords(dst []cohort.Word, payload []byte) ([]cohort.Word, error) {
	if len(payload)%WordBytes != 0 {
		return dst, fmt.Errorf("wire: data payload %d bytes is not word-aligned", len(payload))
	}
	for i := 0; i < len(payload); i += WordBytes {
		dst = append(dst, cohort.Word(binary.LittleEndian.Uint64(payload[i:])))
	}
	return dst, nil
}
