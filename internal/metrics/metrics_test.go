package metrics

import (
	"math"
	"testing"

	"orchestra/internal/core"
)

func schema(t *testing.T) *core.Schema {
	t.Helper()
	return core.MustSchema(core.NewRelation("F", 2, "org", "prot", "fn"))
}

func inst(t *testing.T, s *core.Schema, tuples ...core.Tuple) *core.Instance {
	t.Helper()
	in := core.NewInstance(s)
	for _, tu := range tuples {
		if err := in.Apply(core.Insert("F", tu, "x")); err != nil {
			t.Fatal(err)
		}
	}
	return in
}

func TestStateRatioIdenticalInstances(t *testing.T) {
	s := schema(t)
	a := inst(t, s, core.Strs("rat", "p1", "v"), core.Strs("mouse", "p2", "w"))
	b := inst(t, s, core.Strs("rat", "p1", "v"), core.Strs("mouse", "p2", "w"))
	if got := StateRatio([]*core.Instance{a, b}, "F"); got != 1 {
		t.Errorf("identical instances ratio = %v, want 1", got)
	}
}

func TestStateRatioFullyDivergent(t *testing.T) {
	s := schema(t)
	a := inst(t, s, core.Strs("rat", "p1", "va"))
	b := inst(t, s, core.Strs("rat", "p1", "vb"))
	c := inst(t, s, core.Strs("rat", "p1", "vc"))
	if got := StateRatio([]*core.Instance{a, b, c}, "F"); got != 3 {
		t.Errorf("divergent ratio = %v, want 3", got)
	}
}

func TestStateRatioAbsenceCounts(t *testing.T) {
	s := schema(t)
	a := inst(t, s, core.Strs("rat", "p1", "v"))
	b := inst(t, s) // empty: lacks the key entirely
	if got := StateRatio([]*core.Instance{a, b}, "F"); got != 2 {
		t.Errorf("absence ratio = %v, want 2 (value and absent)", got)
	}
}

func TestStateRatioMixedKeys(t *testing.T) {
	s := schema(t)
	// Key k1: both agree (1 state). Key k2: one value + one absent (2).
	a := inst(t, s, core.Strs("rat", "p1", "v"), core.Strs("mouse", "p2", "w"))
	b := inst(t, s, core.Strs("rat", "p1", "v"))
	want := (1.0 + 2.0) / 2.0
	if got := StateRatio([]*core.Instance{a, b}, "F"); math.Abs(got-want) > 1e-9 {
		t.Errorf("mixed ratio = %v, want %v", got, want)
	}
}

func TestStateRatioEmpty(t *testing.T) {
	s := schema(t)
	if got := StateRatio([]*core.Instance{inst(t, s), inst(t, s)}, "F"); got != 1 {
		t.Errorf("empty instances ratio = %v, want 1", got)
	}
	if got := StateRatio(nil, "F"); got != 0 {
		t.Errorf("no instances ratio = %v, want 0", got)
	}
}

func TestStateRatioDefaultsToAllRelations(t *testing.T) {
	s := core.MustSchema(
		core.NewRelation("A", 1, "k", "v"),
		core.NewRelation("B", 1, "k", "v"),
	)
	a := core.NewInstance(s)
	b := core.NewInstance(s)
	a.Apply(core.Insert("A", core.Strs("k1", "x"), "p"))
	b.Apply(core.Insert("B", core.Strs("k1", "y"), "p"))
	// Two keys (one per relation), each with states {value, absent} = 2.
	if got := StateRatio([]*core.Instance{a, b}); got != 2 {
		t.Errorf("ratio = %v, want 2", got)
	}
}

func TestSummarize(t *testing.T) {
	if s := Summarize(nil); s.N != 0 || s.Mean != 0 {
		t.Errorf("empty summary = %+v", s)
	}
	if s := Summarize([]float64{5}); s.N != 1 || s.Mean != 5 || s.CI95 != 0 {
		t.Errorf("single-sample summary = %+v", s)
	}
	s := Summarize([]float64{2, 4, 4, 4, 5, 5, 7, 9})
	if math.Abs(s.Mean-5) > 1e-9 {
		t.Errorf("mean = %v", s.Mean)
	}
	wantStd := math.Sqrt(32.0 / 7.0)
	if math.Abs(s.Std-wantStd) > 1e-9 {
		t.Errorf("std = %v, want %v", s.Std, wantStd)
	}
	// CI = t(7) * std / sqrt(8) with t(7) = 2.365.
	wantCI := 2.365 * wantStd / math.Sqrt(8)
	if math.Abs(s.CI95-wantCI) > 1e-9 {
		t.Errorf("ci = %v, want %v", s.CI95, wantCI)
	}
	if s.String() == "" || Summarize([]float64{1}).String() == "" {
		t.Error("String renders empty")
	}
}

func TestTCritical(t *testing.T) {
	if tCritical(0) != 0 {
		t.Error("df 0")
	}
	if tCritical(1) != 12.706 {
		t.Error("df 1")
	}
	if tCritical(4) != 2.776 {
		t.Error("df 4 (the paper's 5-trial case)")
	}
	if tCritical(1000) != 1.96 {
		t.Error("large df should be normal")
	}
}
