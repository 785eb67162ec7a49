package main

import (
	"path/filepath"
	"testing"
	"time"

	"leveldbpp/internal/core"
)

// fakeDriver answers every operation with the preset result of its
// embedded coreDriver, so a test can hand the checker any answer.
type fakeDriver struct{ coreDriver }

func (f *fakeDriver) do(o *op) (time.Duration, error) { return time.Microsecond, nil }

// history writes five documents: t2 later moves from user a to user b, and
// t1 is rewritten under user a, so a's list holds a stale posting of t2
// and an old version of t1.
func history() *model {
	m := newModel("U")
	m.put("t1", []byte("d1"), map[string]string{"U": "a"})
	m.put("t2", []byte("d2"), map[string]string{"U": "a"})
	m.put("t3", []byte("d3"), map[string]string{"U": "a"})
	m.put("t2", []byte("d2b"), map[string]string{"U": "b"})
	m.put("t1", []byte("d1b"), map[string]string{"U": "a"})
	return m
}

func entries(kv ...string) []core.Entry {
	var es []core.Entry
	for i := 0; i < len(kv); i += 2 {
		es = append(es, core.Entry{Key: kv[i], Value: []byte(kv[i+1])})
	}
	return es
}

func TestModelAnswers(t *testing.T) {
	m := history()
	got := m.lookup("U", "a", 10)
	if len(got) != 2 || got[0].Key != "t1" || string(got[0].Doc) != "d1b" || got[1].Key != "t3" {
		t.Fatalf("lookup a = %+v, want [t1:d1b t3:d3]", got)
	}
	if got := m.lookup("U", "a", 1); len(got) != 1 || got[0].Key != "t1" {
		t.Fatalf("lookup a top-1 = %+v, want [t1]", got)
	}
	if got := m.rangeLookup("U", "a", "b", 10); len(got) != 3 || got[0].Key != "t1" || got[1].Key != "t2" || got[2].Key != "t3" {
		t.Fatalf("range [a,b] = %+v, want [t1 t2 t3]", got)
	}
	if m.liveBytes != int64(len("t1d1bt2d2bt3d3")) {
		t.Fatalf("liveBytes = %d", m.liveBytes)
	}
}

// TestCheckerReportsWrongAnswers feeds the phase runner answers that are
// wrong in each way the checker must catch; each must count as one failed
// operation and as a wrong answer, and the right answer as none.
func TestCheckerReportsWrongAnswers(t *testing.T) {
	m := history()
	lookup := op{kind: opLookup, attr: "U", lo: "a", hi: "a", k: 10, want: m.lookup("U", "a", 10)}
	get := op{kind: opGet, key: "t1", doc: []byte("d1b")}
	cases := []struct {
		name    string
		o       op
		answer  coreDriver
		wantBad bool
	}{
		{"right lookup", lookup, coreDriver{entries: entries("t1", "d1b", "t3", "d3")}, false},
		{"dropped entry", lookup, coreDriver{entries: entries("t1", "d1b")}, true},
		{"stale posting", lookup, coreDriver{entries: entries("t1", "d1b", "t2", "d2", "t3", "d3")}, true},
		{"stale version", lookup, coreDriver{entries: entries("t1", "d1", "t3", "d3")}, true},
		{"wrong order", lookup, coreDriver{entries: entries("t3", "d3", "t1", "d1b")}, true},
		{"wrong document", lookup, coreDriver{entries: entries("t1", "d1b", "t3", "d1b")}, true},
		{"right get", get, coreDriver{doc: []byte("d1b"), found: true}, false},
		{"get stale version", get, coreDriver{doc: []byte("d1"), found: true}, true},
		{"get missing", get, coreDriver{}, true},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			var out outcome
			out.runPhase(&fakeDriver{c.answer}, []op{c.o}, nil)
			bad := 0
			if c.wantBad {
				bad = 1
			}
			if out.attempted != 1 || out.failed != bad || out.wrong != bad {
				t.Fatalf("attempted %d failed %d wrong %d, want 1 %d %d (err %v)",
					out.attempted, out.failed, out.wrong, bad, bad, out.firstErr)
			}
		})
	}
}

// TestWorkloadsRunClean runs a shrunken copy of every workload against the
// real program and expects every answer to match the model and every
// table to verify clean.
func TestWorkloadsRunClean(t *testing.T) {
	for _, s := range specs {
		s := s
		t.Run(s.name, func(t *testing.T) {
			s.preload = 400
			s.mainRoundsPerSecond = 1
			s.postOps = 20
			p := buildPlan(s, 7, 6)
			dir := t.TempDir()
			plain, err := execute(p, filepath.Join(dir, "plain"), 2, nil)
			if err != nil {
				t.Fatal(err)
			}
			traced, err := execute(p, filepath.Join(dir, "traced"), 1, &layerProbe{})
			if err != nil {
				t.Fatal(err)
			}
			res := report(append(plain, traced...))
			if !res.Correct || res.Failed != 0 {
				t.Fatalf("correct %v, failed %d", res.Correct, res.Failed)
			}
			if want := 3 * (len(p.main) + len(p.post)); res.Attempted != want {
				t.Fatalf("attempted %d, want %d", res.Attempted, want)
			}
		})
	}
}
