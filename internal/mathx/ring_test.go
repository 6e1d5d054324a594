package mathx

import (
	"slices"
	"testing"
)

// TestRingMatchesSlice drives Ring against a plain-slice reference (append,
// then keep the newest capacity values) over random capacities and push
// counts: none, fewer than capacity, exactly capacity, one past it and
// several wraps. Every other trial also pops the oldest value after about
// a third of its pushes. After every push and pop Len, every At and
// AppendTo must agree.
func TestRingMatchesSlice(t *testing.T) {
	rng := NewSplitMix(23)
	for trial := 0; trial < 200; trial++ {
		capacity := 1 + rng.Intn(12)
		var pushes int
		switch trial % 5 {
		case 0:
			pushes = 0
		case 1:
			pushes = rng.Intn(capacity)
		case 2:
			pushes = capacity
		case 3:
			pushes = capacity + 1
		default:
			pushes = capacity*(2+rng.Intn(4)) + rng.Intn(capacity)
		}
		r := NewRing[int](capacity)
		var ref []int
		check := func() {
			t.Helper()
			if r.Len() != len(ref) {
				t.Fatalf("cap %d after %d pushes: Len %d, want %d", capacity, pushes, r.Len(), len(ref))
			}
			for i, want := range ref {
				if got := r.At(i); got != want {
					t.Fatalf("cap %d, %d held: At(%d) = %d, want %d", capacity, len(ref), i, got, want)
				}
			}
			if got := r.AppendTo(nil); !slices.Equal(got, ref) {
				t.Fatalf("cap %d: AppendTo(nil) = %v, want %v", capacity, got, ref)
			}
			prefix := []int{-1, -2}
			if got := r.AppendTo(prefix); !slices.Equal(got, append([]int{-1, -2}, ref...)) {
				t.Fatalf("cap %d: AppendTo(prefix) = %v, want the prefix then %v", capacity, got, ref)
			}
		}
		check()
		for p := 0; p < pushes; p++ {
			v := int(rng.Uint64() >> 33)
			r.Push(v)
			ref = append(ref, v)
			if len(ref) > capacity {
				ref = ref[1:]
			}
			check()
			if trial%2 == 1 && len(ref) > 0 && rng.Intn(3) == 0 {
				if got := r.Pop(); got != ref[0] {
					t.Fatalf("cap %d, %d held: Pop() = %d, want %d", capacity, len(ref), got, ref[0])
				}
				ref = ref[1:]
				check()
			}
		}
	}
}

// TestRingAllocFree: Push, Pop and At allocate nothing, and AppendTo into
// a slice with room allocates nothing.
func TestRingAllocFree(t *testing.T) {
	r := NewRing[float64](7)
	dst := make([]float64, 0, 7)
	var sink float64
	allocs := testing.AllocsPerRun(100, func() {
		for i := 0; i < 10; i++ {
			r.Push(float64(i))
		}
		sink += r.At(0) + r.At(r.Len()-1)
		dst = r.AppendTo(dst[:0])
		r.Push(r.Pop())
	})
	if allocs != 0 {
		t.Errorf("Push/Pop/At/AppendTo allocate %v times per run, want 0", allocs)
	}
	if sink == 0 || len(dst) != 7 {
		t.Errorf("unexpected ring contents: sink %v, %d held", sink, len(dst))
	}
}

// TestRingPanics: a non-positive capacity, an index outside [0, Len())
// and a Pop from an empty ring are caller bugs and panic.
func TestRingPanics(t *testing.T) {
	mustPanic := func(name string, f func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s did not panic", name)
			}
		}()
		f()
	}
	mustPanic("NewRing(0)", func() { NewRing[int](0) })
	r := NewRing[int](3)
	mustPanic("At(0) on an empty ring", func() { r.At(0) })
	mustPanic("Pop on an empty ring", func() { r.Pop() })
	r.Push(1)
	r.Push(2)
	mustPanic("At(Len())", func() { r.At(2) })
	mustPanic("At(-1)", func() { r.At(-1) })
}
