// Pipeline: a multi-stage video workload in the producer-consumer style the
// paper's motivation describes — a camera goroutine produces frames, the
// H.264 accelerator encodes them, and an archiver goroutine consumes the
// bitstreams, all decoupled by SPSC queues. The software stages and the
// accelerator are interchangeable peers: this is the "replace a software
// thread with an accelerator" pattern of §3.3, plus the inter-thread queue
// sharing of §4.5.
//
//	go run ./examples/pipeline
package main

import (
	"fmt"
	"log"
	"math"

	"cohort"
	"cohort/internal/accel"
)

const (
	width, height = 32, 32
	frames        = 12
	qp            = 4
)

// synthFrame renders a moving gradient "scene".
func synthFrame(t int) []byte {
	f := make([]byte, width*height)
	for y := 0; y < height; y++ {
		for x := 0; x < width; x++ {
			v := 128 + 80*math.Sin(2*math.Pi*(float64(x+t*3)/32))*
				math.Cos(2*math.Pi*(float64(y)/32))
			f[y*width+x] = byte(math.Max(0, math.Min(255, v)))
		}
	}
	return f
}

func main() {
	cfg := cohort.H264Config{Width: width, Height: height, QP: qp}
	encoder, err := cohort.NewH264(cfg)
	if err != nil {
		log.Fatal(err)
	}

	rawQ, _ := cohort.NewFifo[cohort.Word](4 * encoder.InWords())
	bitsQ, _ := cohort.NewFifo[cohort.Word](4 * encoder.OutWords())
	// WithBatch lets the engine drain whole frames per wakeup; between frames
	// it parks on the queues' doorbells instead of spinning (§4.2).
	engine, err := cohort.Register(encoder, rawQ, bitsQ, cohort.WithBatch(4))
	if err != nil {
		log.Fatal(err)
	}
	defer engine.Unregister()

	// Producer stage: the "camera" thread pushes raw frames — each frame is
	// one PushSlice, i.e. one write-index publication (§4.1's bulk path).
	originals := make([][]byte, frames)
	go func() {
		for t := 0; t < frames; t++ {
			frame := synthFrame(t)
			originals[t] = frame
			rawQ.PushSlice(cohort.BytesToWords(frame))
		}
	}()

	// Consumer stage: the "archiver" pops whole bitstream blocks and checks
	// quality.
	var rawBytes, codedBytes int
	worstErr := 0
	bits := make([]cohort.Word, encoder.OutWords())
	for t := 0; t < frames; t++ {
		bitsQ.PopSlice(bits)
		stream, err := cohort.DecodeH264Output(bits)
		if err != nil {
			log.Fatal(err)
		}
		rawBytes += width * height
		codedBytes += len(stream)

		decoded, _, err := accel.H264Decoder{}.Decode(stream)
		if err != nil {
			log.Fatalf("frame %d: %v", t, err)
		}
		for i := range decoded[0] {
			if d := absInt(int(decoded[0][i]) - int(originals[t][i])); d > worstErr {
				worstErr = d
			}
		}
	}

	fmt.Printf("encoded %d frames of %dx%d via the H.264 accelerator thread\n", frames, width, height)
	fmt.Printf("  raw:   %6d bytes\n  coded: %6d bytes (%.1fx compression at QP=%d)\n",
		rawBytes, codedBytes, float64(rawBytes)/float64(codedBytes), qp)
	fmt.Printf("  worst pixel error after decode: %d (bounded by QP)\n", worstErr)
	if worstErr > qp {
		log.Fatalf("quality bound violated: %d > %d", worstErr, qp)
	}
}

func absInt(v int) int {
	if v < 0 {
		return -v
	}
	return v
}
