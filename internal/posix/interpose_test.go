package posix_test

import (
	"errors"
	"fmt"
	"math/rand"
	"testing"
	"time"

	"ldplfs/internal/iostats"
	"ldplfs/internal/iotrace"
	"ldplfs/internal/posix"
)

// compositions are the hook stacks every wrapper test runs over, each
// built on a fresh inner FS.
var compositions = []struct {
	name string
	wrap func(inner posix.FS) posix.FS
}{
	{"interpose", func(in posix.FS) posix.FS { return posix.Interpose(in) }},
	{"fault", func(in posix.FS) posix.FS { return posix.NewFaultFS(in) }},
	{"instrument", func(in posix.FS) posix.FS { return posix.NewInstrumentFS(in, iostats.NewPlane()) }},
	{"iotrace", func(in posix.FS) posix.FS { return iotrace.WrapWith(in, iostats.NewPlane()) }},
	{"fault-in-instrument", func(in posix.FS) posix.FS {
		return posix.NewInstrumentFS(posix.NewFaultFS(in), iostats.NewPlane())
	}},
	{"instrument-in-fault", func(in posix.FS) posix.FS {
		return posix.NewFaultFS(posix.NewInstrumentFS(in, iostats.NewPlane()))
	}},
}

// TestHookCompositions pins that every hook stack is transparent — the
// same random op sequence gives the same results as bare MemFS — and
// pins the order rule: Before outermost first, After innermost first,
// and a refusal hidden from every hook inside the refusing one.
func TestHookCompositions(t *testing.T) {
	for _, c := range compositions {
		t.Run(c.name, func(t *testing.T) {
			fs := c.wrap(posix.NewMemFS())
			for seed := int64(0); seed < 4; seed++ {
				posix.RunDifferential(t, rand.New(rand.NewSource(seed)), fs, posix.NewMemFS(), 300)
			}
		})
	}

	t.Run("one table", func(t *testing.T) {
		var log []string
		refused := errors.New("refused")
		fs := posix.Interpose(posix.NewMemFS(),
			&traceHook{name: "a", log: &log},
			&traceHook{name: "b", log: &log, refuse: refused},
			&traceHook{name: "c", log: &log})
		fd, err := fs.Open("/f", posix.O_CREAT|posix.O_RDWR, 0o644)
		if !errors.Is(err, refused) || fd != -1 {
			t.Fatalf("refused open = %d, %v", fd, err)
		}
		want := []string{"a before open", "b before open", "b after open: refused", "a after open: refused"}
		if fmt.Sprint(log) != fmt.Sprint(want) {
			t.Fatalf("refused open ran %v, want %v", log, want)
		}

		log = nil
		pass := posix.Interpose(posix.NewMemFS(), &traceHook{name: "a", log: &log}, &traceHook{name: "c", log: &log})
		fd, err = pass.Open("/f", posix.O_CREAT|posix.O_RDWR, 0o644)
		if err != nil {
			t.Fatal(err)
		}
		pass.Lseek(fd, 0, posix.SEEK_SET)
		pass.Close(fd)
		want = []string{"a before open", "c before open", "c after open", "a after open",
			"c after close", "a after close"}
		if fmt.Sprint(log) != fmt.Sprint(want) {
			t.Fatalf("open, lseek, close ran %v, want %v (Close never runs Before; Lseek reaches no hook)", log, want)
		}
	})

	t.Run("instrument around a refusing fault", func(t *testing.T) {
		const d = 5 * time.Millisecond
		plane := iostats.NewPlane()
		fault := posix.NewFaultFS(posix.NewInstrumentFS(posix.NewMemFS(), plane, posix.WithLayerName("inside")))
		fs := posix.NewInstrumentFS(fault, plane, posix.WithLayerName("outside"))
		fd, err := fs.Open("/f", posix.O_CREAT|posix.O_RDWR, 0o644)
		if err != nil {
			t.Fatal(err)
		}
		fault.SetServiceTime(posix.FaultRead, d)
		fault.Inject(&posix.FaultRule{Op: posix.FaultRead, Err: posix.EIO, Times: 1})
		if _, err := fs.Pread(fd, make([]byte, 8), 0); !errors.Is(err, posix.EIO) {
			t.Fatalf("pread under a read rule = %v, want EIO", err)
		}
		out, in := plane.Layer("outside"), plane.Layer("inside")
		if out.OpCount(iostats.Read) != 1 || out.OpErrors(iostats.Read) != 1 {
			t.Errorf("outside instrument: %d reads, %d errors; want 1, 1", out.OpCount(iostats.Read), out.OpErrors(iostats.Read))
		}
		if lat := readLatency(plane, "outside"); lat < int64(d) {
			t.Errorf("outside read latency bound %v does not include the %v service time", time.Duration(lat), d)
		}
		if in.OpCount(iostats.Read) != 0 {
			t.Errorf("inside instrument saw %d reads of a refused op, want 0", in.OpCount(iostats.Read))
		}
	})
}

// traceHook logs each call it sees, and refuses every op when refuse
// is set.
type traceHook struct {
	name   string
	log    *[]string
	refuse error
}

var callNames = map[posix.Call]string{posix.CallOpen: "open", posix.CallClose: "close"}

func (h *traceHook) Before(op posix.Op) (posix.Op, error) {
	*h.log = append(*h.log, h.name+" before "+callNames[op.Call])
	return op, h.refuse
}

func (h *traceHook) After(op posix.Op, _ int64, err error) {
	s := h.name + " after " + callNames[op.Call]
	if err != nil {
		s += ": " + err.Error()
	}
	*h.log = append(*h.log, s)
}

// readLatency is the upper bound of the slowest read a layer recorded.
func readLatency(plane *iostats.Plane, layer string) int64 {
	for _, l := range plane.Snapshot().Layers {
		for _, op := range l.Ops {
			if l.Name == layer && op.Op == iostats.Read.String() {
				return op.Lat.Quantile(1)
			}
		}
	}
	return 0
}

// TestInterposedDataPathAllocs pins that a hook stack adds no
// allocation to the positional data path: the Op goes to each hook by
// value.
func TestInterposedDataPathAllocs(t *testing.T) {
	stacks := append(compositions[:len(compositions):len(compositions)], struct {
		name string
		wrap func(inner posix.FS) posix.FS
	}{"fault with a service time", func(in posix.FS) posix.FS {
		f := posix.NewFaultFS(in)
		f.SetServiceTime(posix.FaultAny, time.Microsecond)
		return f
	}})
	for _, c := range stacks {
		fs := c.wrap(posix.NewMemFS())
		fd, err := fs.Open("/f", posix.O_CREAT|posix.O_RDWR, 0o644)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := posix.WriteFull(fs, fd, make([]byte, 4096), 0); err != nil {
			t.Fatal(err)
		}
		vfs := fs.(posix.VectorFS)
		buf := make([]byte, 512)
		bufs := [][]byte{buf[:256], buf[256:]}
		for name, op := range map[string]func() error{
			"Pread":   func() error { _, err := fs.Pread(fd, buf, 0); return err },
			"Pwrite":  func() error { _, err := fs.Pwrite(fd, buf, 0); return err },
			"Preadv":  func() error { _, err := vfs.Preadv(fd, bufs, 0); return err },
			"Pwritev": func() error { _, err := vfs.Pwritev(fd, bufs, 0); return err },
		} {
			var opErr error
			if got := testing.AllocsPerRun(100, func() { opErr = op() }); got != 0 || opErr != nil {
				t.Errorf("%s through %s: %v allocs/op (err=%v), want 0", name, c.name, got, opErr)
			}
		}
		fs.Close(fd)
	}
}
