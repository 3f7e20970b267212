package cohort

import "testing"

// TestFifoScrubsOnlyPointerSlots: a queue of pointers nils every slot it
// hands out — by TryPop, TryPopInto and CommitRead — so it never keeps a
// consumed value alive for the GC; a queue of plain words skips the clear,
// which is all it would cost.
func TestFifoScrubsOnlyPointerSlots(t *testing.T) {
	ptrs, err := NewFifo[*int](4)
	if err != nil {
		t.Fatal(err)
	}
	if !ptrs.scrub {
		t.Fatal("Fifo[*int] does not clear consumed slots")
	}
	vals := []*int{new(int), new(int), new(int), new(int)}
	for round := 0; round < 3; round++ { // wrap the ring
		ptrs.PushSlice(vals[:3])
		if _, ok := ptrs.TryPop(); !ok {
			t.Fatal("TryPop found nothing")
		}
		if ptrs.TryPopInto(make([]*int, 1)) != 1 {
			t.Fatal("TryPopInto found nothing")
		}
		a, b := ptrs.ReadSegments()
		ptrs.CommitRead(len(a) + len(b))
		for i, p := range ptrs.buf {
			if p != nil {
				t.Fatalf("round %d: slot %d still holds a popped pointer", round, i)
			}
		}
	}

	for _, tc := range []struct {
		name string
		got  bool
	}{
		{"Word", mustFifo[Word](t).scrub},
		{"[2]uint32", mustFifo[[2]uint32](t).scrub},
		{"struct{a int; b float64}", mustFifo[struct {
			a int
			b float64
		}](t).scrub},
	} {
		if tc.got {
			t.Errorf("Fifo[%s] clears consumed slots; it holds no pointer", tc.name)
		}
	}
	for _, tc := range []struct {
		name string
		got  bool
	}{
		{"string", mustFifo[string](t).scrub},
		{"[]byte", mustFifo[[]byte](t).scrub},
		{"struct{n int; s string}", mustFifo[struct {
			n int
			s string
		}](t).scrub},
		{"[1]any", mustFifo[[1]any](t).scrub},
	} {
		if !tc.got {
			t.Errorf("Fifo[%s] skips clearing consumed slots; it holds pointers", tc.name)
		}
	}
}

func mustFifo[T any](t *testing.T) *Fifo[T] {
	t.Helper()
	q, err := NewFifo[T](4)
	if err != nil {
		t.Fatal(err)
	}
	return q
}
