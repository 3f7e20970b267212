package wire

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
)

// OpenRequest is the client's session ask — the wire form of
// sched.SessionConfig. It travels in the binary Open layout (see
// AppendOpen), not as JSON.
type OpenRequest struct {
	Tenant   string
	Accel    string
	CSR      []byte
	Weight   int
	Quota    uint64
	QueueCap int
	// Timing asks the server to attach the session's whole-life
	// server-side stage-latency breakdown to its Done (DoneReply.Timing).
	Timing bool
	// Reuse asks the server to keep the connection open after a clean Done,
	// or a gateway after its Redirect, so the next Open can follow on it.
	// The client package sets it on every Open. Without it the connection
	// carries one Open and closes after the answer's final frame.
	Reuse bool
	// Shm says the client can map a shared-memory region (shmring): a shard
	// that finds it on the same host offers one in its OpenOK, once per
	// connection, and the connection's sessions then move their words
	// through the region's rings. The client package sets it wherever
	// shmring.Supported.
	Shm bool
}

// OpenReply acknowledges admission and tells the client the accelerator's
// block geometry so it can frame its stream sensibly.
type OpenReply struct {
	Session  uint64
	InWords  int
	OutWords int
	// Region, when set, offers the connection a shared-memory data plane:
	// the region's file name and the words in each of its two rings. The
	// client answers with a Doorbell once it has mapped the region, or by
	// sending its words in Data frames as before.
	Region    string
	RingWords int
}

// openVersion is the layout version an Open payload starts with.
const openVersion = 1

// Open flag bits (byte 1 of the payload). Any other bit is malformed.
const (
	openTiming byte = 1 << 0
	openReuse  byte = 1 << 1
	openShm    byte = 1 << 2
	openFlags       = openTiming | openReuse | openShm
)

// Field caps, set by the width of each length prefix.
const (
	maxTenantBytes = math.MaxUint8
	maxAccelBytes  = math.MaxUint8
	maxCSRBytes    = math.MaxUint16
)

// Bounds on the quantities a client chooses for the server. An Open past
// either one is malformed: the server would otherwise allocate what the
// client asks for (two queues of queue_cap words) or let one session claim
// the workers (a stride weight of 2^31).
const (
	// MaxQueueCap is the largest per-direction queue a session may ask
	// for, in words (512 KiB per queue).
	MaxQueueCap = 1 << 16
	// MaxWeight is the largest stride weight a session may ask for.
	MaxWeight = 1 << 10
)

// openFixed is the size of the Open payload's fixed part: version, flags,
// weight, quota, queue_cap.
const openFixed = 1 + 1 + 4 + 8 + 4

// openReplyBytes is the size of an OpenOK payload with no region offer.
const openReplyBytes = 8 + 4 + 4

// maxRegionName bounds an offered region's name, the u8 length prefix.
const maxRegionName = math.MaxUint8

// errOpenShort is every truncation of an Open: a fixed part cut short or a
// length prefix that runs past the payload.
var errOpenShort = errors.New("wire: open payload truncated")

// AppendOpen appends req's Open payload to dst. The layout, little-endian:
//
//	off  size  field
//	0    1     version (openVersion)
//	1    1     flags: bit 0 timing, bit 1 reuse, bit 2 shm
//	2    4     weight     (int32)
//	6    8     quota      (uint64)
//	14   4     queue_cap  (int32)
//	18   1+n   tenant     (uint8 length, bytes)
//	..   1+n   accel      (uint8 length, bytes)
//	..   2+n   csr        (uint16 length, bytes)
//
// Nothing follows the CSR. Fields that do not fit their width are an error.
func AppendOpen(dst []byte, req *OpenRequest) ([]byte, error) {
	if err := req.Validate(); err != nil {
		return dst, err
	}
	var flags byte
	if req.Timing {
		flags |= openTiming
	}
	if req.Reuse {
		flags |= openReuse
	}
	if req.Shm {
		flags |= openShm
	}
	dst = append(dst, openVersion, flags)
	dst = binary.LittleEndian.AppendUint32(dst, uint32(int32(req.Weight)))
	dst = binary.LittleEndian.AppendUint64(dst, req.Quota)
	dst = binary.LittleEndian.AppendUint32(dst, uint32(int32(req.QueueCap)))
	dst = append(dst, byte(len(req.Tenant)))
	dst = append(dst, req.Tenant...)
	dst = append(dst, byte(len(req.Accel)))
	dst = append(dst, req.Accel...)
	dst = binary.LittleEndian.AppendUint16(dst, uint16(len(req.CSR)))
	return append(dst, req.CSR...), nil
}

// Validate reports whether every field of req fits the Open layout.
func (req *OpenRequest) Validate() error {
	switch {
	case len(req.Tenant) > maxTenantBytes:
		return fmt.Errorf("wire: open tenant is %d bytes, max %d", len(req.Tenant), maxTenantBytes)
	case len(req.Accel) > maxAccelBytes:
		return fmt.Errorf("wire: open accel is %d bytes, max %d", len(req.Accel), maxAccelBytes)
	case len(req.CSR) > maxCSRBytes:
		return fmt.Errorf("wire: open csr is %d bytes, max %d", len(req.CSR), maxCSRBytes)
	case req.Weight < math.MinInt32:
		return fmt.Errorf("wire: open weight %d out of int32 range", req.Weight)
	case req.QueueCap < math.MinInt32:
		return fmt.Errorf("wire: open queue_cap %d out of int32 range", req.QueueCap)
	}
	return checkBounds(req.Weight, req.QueueCap)
}

// checkBounds refuses a weight above MaxWeight or a queue_cap above
// MaxQueueCap.
func checkBounds(weight, queueCap int) error {
	if weight > MaxWeight {
		return fmt.Errorf("wire: open weight %d above MaxWeight %d", weight, MaxWeight)
	}
	if queueCap > MaxQueueCap {
		return fmt.Errorf("wire: open queue_cap %d above MaxQueueCap %d", queueCap, MaxQueueCap)
	}
	return nil
}

// openFields is a validated Open payload whose variable fields alias it.
type openFields struct {
	flags              byte
	weight, queueCap   int32
	quota              uint64
	tenant, accel, csr []byte
}

// parseOpen validates p against the Open layout without copying: the
// version, the flag bits, the weight and queue_cap bounds, every length
// prefix, and that nothing trails the CSR.
func parseOpen(p []byte) (openFields, error) {
	var f openFields
	if len(p) < openFixed {
		return f, errOpenShort
	}
	if p[0] != openVersion {
		return f, fmt.Errorf("wire: open version %d, want %d", p[0], openVersion)
	}
	f.flags = p[1]
	if f.flags&^openFlags != 0 {
		return f, fmt.Errorf("wire: open flags %#x carry unknown bits", f.flags)
	}
	f.weight = int32(binary.LittleEndian.Uint32(p[2:]))
	f.quota = binary.LittleEndian.Uint64(p[6:])
	f.queueCap = int32(binary.LittleEndian.Uint32(p[14:]))
	if err := checkBounds(int(f.weight), int(f.queueCap)); err != nil {
		return f, err
	}
	rest := p[openFixed:]
	var ok bool
	if f.tenant, rest, ok = lenField(rest, 1); !ok {
		return f, errOpenShort
	}
	if f.accel, rest, ok = lenField(rest, 1); !ok {
		return f, errOpenShort
	}
	if f.csr, rest, ok = lenField(rest, 2); !ok {
		return f, errOpenShort
	}
	if len(rest) > 0 {
		return f, fmt.Errorf("wire: open payload has %d trailing bytes", len(rest))
	}
	return f, nil
}

// lenField splits one length-prefixed field (a prefix of 1 or 2 bytes) off
// b. ok is false when the prefix or the field runs past b.
func lenField(b []byte, prefix int) (field, rest []byte, ok bool) {
	if len(b) < prefix {
		return nil, nil, false
	}
	n := int(b[0])
	if prefix == 2 {
		n = int(binary.LittleEndian.Uint16(b))
	}
	b = b[prefix:]
	if len(b) < n {
		return nil, nil, false
	}
	return b[:n], b[n:], true
}

// DecodeOpen decodes an Open payload into req. The strings and CSR are
// copies, so req outlives the reader's scratch buffer. A malformed payload
// — wrong version, unknown flag bits, a field past its bound, a truncated
// field, trailing bytes — is an error the server answers with
// CodeBadRequest.
func DecodeOpen(p []byte, req *OpenRequest) error {
	f, err := parseOpen(p)
	if err != nil {
		return err
	}
	*req = OpenRequest{
		Tenant: string(f.tenant), Accel: string(f.accel),
		Weight: int(f.weight), Quota: f.quota, QueueCap: int(f.queueCap),
		Timing: f.flags&openTiming != 0, Reuse: f.flags&openReuse != 0,
		Shm: f.flags&openShm != 0,
	}
	if len(f.csr) > 0 {
		req.CSR = append([]byte(nil), f.csr...)
	}
	return nil
}

// OpenTenant validates an Open payload like DecodeOpen and returns only its
// tenant and reuse flag — what a router needs, without decoding the rest.
func OpenTenant(p []byte) (tenant string, reuse bool, err error) {
	f, err := parseOpen(p)
	if err != nil {
		return "", false, err
	}
	return string(f.tenant), f.flags&openReuse != 0, nil
}

// appendOpenReply appends rep's OpenOK payload to dst: session (uint64),
// in_words and out_words (uint32 each), and, only when rep offers a region,
// ring_words (uint32) and the region name (u8 length, bytes), all
// little-endian.
func appendOpenReply(dst []byte, rep OpenReply) ([]byte, error) {
	dst = binary.LittleEndian.AppendUint64(dst, rep.Session)
	dst = binary.LittleEndian.AppendUint32(dst, uint32(rep.InWords))
	dst = binary.LittleEndian.AppendUint32(dst, uint32(rep.OutWords))
	if rep.Region == "" && rep.RingWords == 0 {
		return dst, nil
	}
	if err := checkOffer(rep.Region, rep.RingWords); err != nil {
		return dst, err
	}
	dst = binary.LittleEndian.AppendUint32(dst, uint32(rep.RingWords))
	dst = append(dst, byte(len(rep.Region)))
	return append(dst, rep.Region...), nil
}

// checkOffer refuses a region offer with no name, an over-long one, or a
// ring size outside (0, MaxQueueCap]: a client maps what it is offered.
func checkOffer(name string, ringWords int) error {
	if name == "" || len(name) > maxRegionName {
		return fmt.Errorf("wire: open-ok region name is %d bytes, want 1 to %d", len(name), maxRegionName)
	}
	if ringWords <= 0 || ringWords > MaxQueueCap {
		return fmt.Errorf("wire: open-ok ring of %d words, want 1 to %d", ringWords, MaxQueueCap)
	}
	return nil
}

// DecodeOpenReply decodes an OpenOK payload: the fixed part alone, or the
// fixed part and a region offer, nothing after.
func DecodeOpenReply(p []byte) (OpenReply, error) {
	if len(p) < openReplyBytes {
		return OpenReply{}, fmt.Errorf("wire: open-ok payload is %d bytes, want %d or more", len(p), openReplyBytes)
	}
	rep := OpenReply{
		Session:  binary.LittleEndian.Uint64(p),
		InWords:  int(binary.LittleEndian.Uint32(p[8:])),
		OutWords: int(binary.LittleEndian.Uint32(p[12:])),
	}
	rest := p[openReplyBytes:]
	if len(rest) == 0 {
		return rep, nil
	}
	if len(rest) < 4 {
		return OpenReply{}, errors.New("wire: open-ok region offer truncated")
	}
	ringWords := binary.LittleEndian.Uint32(rest)
	name, rest, ok := lenField(rest[4:], 1)
	switch {
	case !ok:
		return OpenReply{}, errors.New("wire: open-ok region offer truncated")
	case len(rest) > 0:
		return OpenReply{}, fmt.Errorf("wire: open-ok payload has %d trailing bytes", len(rest))
	case ringWords > MaxQueueCap:
		return OpenReply{}, fmt.Errorf("wire: open-ok ring of %d words, want 1 to %d", ringWords, MaxQueueCap)
	}
	if err := checkOffer(string(name), int(ringWords)); err != nil {
		return OpenReply{}, err
	}
	rep.Region, rep.RingWords = string(name), int(ringWords)
	return rep, nil
}

// Redirect bounds: a gateway names at most maxRedirectAddrs candidates,
// and each is a host:port dial string no longer than a DNS name (253
// bytes), a colon and a five-digit port.
const (
	maxRedirectAddrs = 8
	maxAddrBytes     = 253 + 1 + 5
)

// errRedirectShort is every truncation of a Redirect.
var errRedirectShort = errors.New("wire: redirect payload truncated")

// AppendRedirect appends the Redirect payload naming addrs, in the order
// the client is to try them, to dst. The layout:
//
//	count u8 | count × (addr u16-len, bytes)
//
// Between one and maxRedirectAddrs addresses, each 1 to maxAddrBytes bytes
// long; anything else is an error.
func AppendRedirect(dst []byte, addrs []string) ([]byte, error) {
	if len(addrs) == 0 || len(addrs) > maxRedirectAddrs {
		return dst, fmt.Errorf("wire: redirect names %d candidates, want 1 to %d", len(addrs), maxRedirectAddrs)
	}
	dst = append(dst, byte(len(addrs)))
	for _, a := range addrs {
		if len(a) == 0 || len(a) > maxAddrBytes {
			return dst, fmt.Errorf("wire: redirect address is %d bytes, want 1 to %d", len(a), maxAddrBytes)
		}
		dst = binary.LittleEndian.AppendUint16(dst, uint16(len(a)))
		dst = append(dst, a...)
	}
	return dst, nil
}

// DecodeRedirect appends the addresses of a Redirect payload, as copies, to
// dst. It refuses zero candidates, more than maxRedirectAddrs, an empty or
// over-long address, a truncated field and trailing bytes.
func DecodeRedirect(p []byte, dst []string) ([]string, error) {
	if len(p) == 0 {
		return dst, errRedirectShort
	}
	n := int(p[0])
	if n == 0 || n > maxRedirectAddrs {
		return dst, fmt.Errorf("wire: redirect names %d candidates, want 1 to %d", n, maxRedirectAddrs)
	}
	out, rest := dst, p[1:]
	for i := 0; i < n; i++ {
		a, r, ok := lenField(rest, 2)
		if !ok {
			return dst, errRedirectShort
		}
		if len(a) == 0 || len(a) > maxAddrBytes {
			return dst, fmt.Errorf("wire: redirect address is %d bytes, want 1 to %d", len(a), maxAddrBytes)
		}
		out, rest = append(out, string(a)), r
	}
	if len(rest) > 0 {
		return dst, fmt.Errorf("wire: redirect payload has %d trailing bytes", len(rest))
	}
	return out, nil
}

// Redirect writes a Redirect frame naming addrs (AppendRedirect).
func (fw *Writer) Redirect(addrs []string) error {
	b, err := AppendRedirect(fw.buf[:0], addrs)
	if err != nil {
		return err
	}
	return fw.control(Redirect, b)
}

// OpenOK writes rep as an OpenOK frame.
func (fw *Writer) OpenOK(rep OpenReply) error {
	b, err := appendOpenReply(fw.buf[:0], rep)
	if err != nil {
		return err
	}
	return fw.control(OpenOK, b)
}

// control writes a control payload built by appending to the scratch
// buffer, and keeps the buffer for the next frame when it is small enough:
// a binary control frame costs no allocation once the Writer is warm.
func (fw *Writer) control(t Type, b []byte) error {
	if cap(b) <= maxRetain {
		fw.buf = b
	}
	return fw.Frame(t, b)
}
