package core

import (
	"fmt"
	"math"
	"testing"

	"kernelselect/internal/dataset"
	"kernelselect/internal/device"
	"kernelselect/internal/gemm"
	"kernelselect/internal/sim"
	"kernelselect/internal/sycl"
	"kernelselect/internal/xrand"
)

// testDataset builds a small but structurally realistic dataset from the
// device model: 24 shapes × 160 configurations.
func testDataset(t testing.TB) *dataset.PerfDataset {
	t.Helper()
	m := sim.New(device.R9Nano())
	shapes := []gemm.Shape{
		{M: 1, K: 4096, N: 1000}, {M: 4, K: 4096, N: 1000}, {M: 16, K: 4096, N: 1000},
		{M: 1, K: 25088, N: 4096}, {M: 64, K: 25088, N: 4096},
		{M: 3136, K: 64, N: 64}, {M: 12544, K: 64, N: 64}, {M: 50176, K: 64, N: 64},
		{M: 3136, K: 576, N: 128}, {M: 784, K: 1152, N: 256}, {M: 196, K: 2304, N: 512},
		{M: 49, K: 4608, N: 512}, {M: 12544, K: 27, N: 32}, {M: 49, K: 960, N: 160},
		{M: 196, K: 384, N: 64}, {M: 784, K: 144, N: 24}, {M: 3136, K: 32, N: 192},
		{M: 12544, K: 16, N: 96}, {M: 100352, K: 3, N: 64}, {M: 49, K: 320, N: 1280},
		{M: 196, K: 96, N: 576}, {M: 784, K: 24, N: 144}, {M: 3136, K: 128, N: 128},
		{M: 196, K: 512, N: 512},
	}
	return dataset.Build(m, shapes, gemm.AllConfigs()[:160])
}

func TestAllPrunersContract(t *testing.T) {
	d := testDataset(t)
	train, _ := d.Split(7, 0.25)
	for _, p := range AllPruners() {
		for _, n := range []int{1, 4, 8, 15} {
			sel := p.Prune(train, n, 3)
			if len(sel) != n {
				t.Fatalf("%s: returned %d configs, want %d", p.Name(), len(sel), n)
			}
			seen := map[int]bool{}
			for _, c := range sel {
				if c < 0 || c >= train.NumConfigs() {
					t.Fatalf("%s: config index %d out of range", p.Name(), c)
				}
				if seen[c] {
					t.Fatalf("%s: duplicate config %d", p.Name(), c)
				}
				seen[c] = true
			}
			// Determinism.
			again := p.Prune(train, n, 3)
			for i := range sel {
				if sel[i] != again[i] {
					t.Fatalf("%s: non-deterministic pruning", p.Name())
				}
			}
		}
	}
}

func TestPrunePanicsOnBadArgs(t *testing.T) {
	d := testDataset(t)
	for _, n := range []int{0, -3, d.NumConfigs() + 1} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("n=%d accepted", n)
				}
			}()
			TopN{}.Prune(d, n, 1)
		}()
	}
}

func TestTopNOrder(t *testing.T) {
	d := testDataset(t)
	sel := TopN{}.Prune(d, 5, 0)
	wins := d.WinCounts()
	for i := 1; i < len(sel); i++ {
		if wins[sel[i]] > wins[sel[i-1]] {
			t.Fatalf("top-n not ordered by wins: %d (%d wins) after %d (%d wins)",
				sel[i], wins[sel[i]], sel[i-1], wins[sel[i-1]])
		}
	}
	// First selection must be the global win leader.
	best := 0
	for c, w := range wins {
		if w > wins[best] {
			best = c
		}
	}
	if sel[0] != best {
		t.Fatalf("top-n first pick %d, want win leader %d", sel[0], best)
	}
}

func TestAchievableScoreBounds(t *testing.T) {
	d := testDataset(t)
	all := make([]int, d.NumConfigs())
	for i := range all {
		all[i] = i
	}
	if s := AchievableScore(d, all); math.Abs(s-100) > 1e-9 {
		t.Fatalf("full selection score = %v, want 100", s)
	}
	one := AchievableScore(d, []int{0})
	if one <= 0 || one > 100 {
		t.Fatalf("single-config score = %v out of (0,100]", one)
	}
}

func TestAchievableScoreMonotoneInSelection(t *testing.T) {
	d := testDataset(t)
	train, test := d.Split(3, 0.25)
	prev := 0.0
	for _, n := range []int{1, 2, 4, 8, 16} {
		s := AchievableScore(test, TopN{}.Prune(train, n, 0))
		if s < prev-1e-9 {
			t.Fatalf("achievable score decreased when adding configs: %v → %v", prev, s)
		}
		prev = s
	}
}

func TestClusteringBeatsTopNAtSmallN(t *testing.T) {
	// The paper's headline Section III result: with few configurations the
	// clustering methods clearly beat counting wins. Verify the decision
	// tree beats top-n at n=5 on a held-out split of the real dataset shape.
	d := testDataset(t)
	train, test := d.Split(42, 0.25)
	top := AchievableScore(test, TopN{}.Prune(train, 5, 1))
	tree := AchievableScore(test, DecisionTree{}.Prune(train, 5, 1))
	if tree < top-3 { // allow small-sample noise but catch inversions
		t.Fatalf("decision-tree pruning (%v) far below top-n (%v) at n=5", tree, top)
	}
}

func TestTrainLabels(t *testing.T) {
	d := testDataset(t)
	selected := []int{3, 50, 90}
	labels := TrainLabels(d, selected)
	for i, l := range labels {
		row := d.Norm.Row(i)
		for k, c := range selected {
			if row[c] > row[selected[l]] {
				t.Fatalf("shape %d: label %d but selected[%d] is better", i, l, k)
			}
		}
	}
}

func TestSelectorScoreStatic(t *testing.T) {
	d := testDataset(t)
	selected := []int{10, 20}
	got := SelectorScore(d, selected, StaticSelector{Index: 1})
	// Must equal the geometric mean of column 20.
	logSum := 0.0
	for i := 0; i < d.NumShapes(); i++ {
		logSum += math.Log(d.Norm.At(i, 20))
	}
	want := 100 * math.Exp(logSum/float64(d.NumShapes()))
	if math.Abs(got-want) > 1e-9 {
		t.Fatalf("static selector score = %v, want %v", got, want)
	}
}

func TestSelectorScorePanicsOnOutOfRange(t *testing.T) {
	d := testDataset(t)
	defer func() {
		if recover() == nil {
			t.Fatal("out-of-range selector output accepted")
		}
	}()
	SelectorScore(d, []int{1, 2}, StaticSelector{Index: 5})
}

func TestAllSelectorTrainersContract(t *testing.T) {
	d := testDataset(t)
	train, test := d.Split(11, 0.25)
	selected := DecisionTree{}.Prune(train, 6, 1)
	for _, tr := range AllSelectorTrainers() {
		sel := tr.Train(train, selected, 2)
		if sel.Name() == "" {
			t.Fatalf("%T: empty name", tr)
		}
		for i := 0; i < test.NumShapes(); i++ {
			k := sel.Select(test.Shapes[i].Features())
			if k < 0 || k >= len(selected) {
				t.Fatalf("%s: selection %d out of [0,%d)", sel.Name(), k, len(selected))
			}
		}
		score := SelectorScore(test, selected, sel)
		if score <= 0 || score > 100 {
			t.Fatalf("%s: score %v out of (0,100]", sel.Name(), score)
		}
	}
}

func TestSelectorNeverBeatsCeiling(t *testing.T) {
	// Per-shape the selector's pick is at most the best of the selection, so
	// the geometric means obey SelectorPct ≤ CeilingPct.
	d := testDataset(t)
	train, test := d.Split(5, 0.25)
	for _, tr := range AllSelectorTrainers() {
		res := RunPipeline(train, test, DecisionTree{}, tr, 6, 4)
		if res.SelectorPct > res.CeilingPct+1e-9 {
			t.Fatalf("%s: selector %v beats ceiling %v", res.SelectorName, res.SelectorPct, res.CeilingPct)
		}
	}
}

func TestDecisionTreeSelectorFitsTraining(t *testing.T) {
	// With unlimited depth the tree selector should score near its ceiling
	// on the training data (it can memorise the argmax labels).
	d := testDataset(t)
	selected := DecisionTree{}.Prune(d, 6, 1)
	sel := DecisionTreeSelector{}.Train(d, selected, 1)
	train := SelectorScore(d, selected, sel)
	ceiling := AchievableScore(d, selected)
	if ceiling-train > 0.5 {
		t.Fatalf("tree selector training score %v far below ceiling %v", train, ceiling)
	}
}

func TestRadialSVMMajorityCollapse(t *testing.T) {
	// On raw matrix-size features with the default gamma the RBF selector
	// must predict one class everywhere (the paper's Table I mechanism).
	d := testDataset(t)
	train, test := d.Split(9, 0.25)
	selected := DecisionTree{}.Prune(train, 6, 1)
	sel := RadialSVMSelector{}.Train(train, selected, 1)
	first := sel.Select(test.Shapes[0].Features())
	for i := 1; i < test.NumShapes(); i++ {
		if sel.Select(test.Shapes[i].Features()) != first {
			t.Fatal("degenerate RBF selector did not collapse to a single class")
		}
	}
}

func TestTreeExtraction(t *testing.T) {
	d := testDataset(t)
	selected := DecisionTree{}.Prune(d, 4, 1)
	sel := DecisionTreeSelector{}.Train(d, selected, 1)
	c, ok := Tree(sel)
	if !ok || c == nil {
		t.Fatal("Tree() failed on a tree selector")
	}
	if _, ok := Tree(StaticSelector{}); ok {
		t.Fatal("Tree() succeeded on a non-tree selector")
	}
	src, err := c.GenGo("Select", []string{"m", "k", "n"})
	if err != nil || len(src) == 0 {
		t.Fatalf("codegen failed: %v", err)
	}
}

func TestRunPipelineFields(t *testing.T) {
	d := testDataset(t)
	train, test := d.Split(13, 0.25)
	res := RunPipeline(train, test, KMeans{}, DecisionTreeSelector{}, 5, 8)
	if res.PrunerName != "k-means" || res.SelectorName != "DecisionTree" || res.NumConfigs != 5 {
		t.Fatalf("result metadata wrong: %+v", res)
	}
	if len(res.Selected) != 5 {
		t.Fatalf("selected %d configs", len(res.Selected))
	}
	if res.TrainPct <= 0 || res.SelectorPct <= 0 || res.CeilingPct <= 0 {
		t.Fatal("scores not populated")
	}
}

func TestBuildLibraryAndMultiply(t *testing.T) {
	d := testDataset(t)
	lib := BuildLibrary(d, DecisionTree{}, DecisionTreeSelector{}, 6, 1)
	if len(lib.Configs) != 6 {
		t.Fatalf("library has %d configs", len(lib.Configs))
	}
	if lib.SelectorName() != "DecisionTree" {
		t.Fatalf("selector name %q", lib.SelectorName())
	}

	q := sycl.NewQueue(sycl.HostDevice())
	r := xrand.New(4)
	s := gemm.Shape{M: 33, N: 29, K: 41}
	a := make([]float64, s.M*s.K)
	b := make([]float64, s.K*s.N)
	for i := range a {
		a[i] = r.Float64()
	}
	for i := range b {
		b[i] = r.Float64()
	}
	got := make([]float64, s.M*s.N)
	cfg, err := lib.Multiply(q, a, b, got, s)
	if err != nil {
		t.Fatal(err)
	}
	if err := cfg.Validate(); err != nil {
		t.Fatalf("library chose invalid config: %v", err)
	}
	want := make([]float64, s.M*s.N)
	gemm.Reference(a, b, want, s)
	for i := range want {
		if math.Abs(want[i]-got[i]) > 1e-9 {
			t.Fatal("library multiply incorrect")
		}
	}
}

func TestNewLibraryValidation(t *testing.T) {
	if _, err := NewLibrary(nil, StaticSelector{}); err == nil {
		t.Fatal("empty config list accepted")
	}
	if _, err := NewLibrary([]gemm.Config{{TileRows: 3}}, StaticSelector{}); err == nil {
		t.Fatal("invalid config accepted")
	}
	if _, err := NewLibrary([]gemm.Config{{TileRows: 1, TileCols: 1, AccDepth: 1, WG: gemm.WorkGroup{R: 8, C: 8}}}, nil); err == nil {
		t.Fatal("nil selector accepted")
	}
}

func TestLibraryChooseClampsBadSelector(t *testing.T) {
	cfgs := []gemm.Config{{TileRows: 1, TileCols: 1, AccDepth: 1, WG: gemm.WorkGroup{R: 8, C: 8}}}
	lib, err := NewLibrary(cfgs, StaticSelector{Index: 99})
	if err != nil {
		t.Fatal(err)
	}
	if got := lib.Choose(gemm.Shape{M: 1, N: 1, K: 1}); got != cfgs[0] {
		t.Fatal("out-of-range selector output not clamped")
	}
}

func TestSelectorTrainerByFlag(t *testing.T) {
	cases := []struct {
		flag, want string // want "" means unknown
	}{
		{"tree", "DecisionTree"},
		{"forest", "RandomForest"},
		{"1nn", "1NearestNeighbor"},
		{"3nn", "3NearestNeighbor"},
		{"linear-svm", "LinearSVM"},
		{"radial-svm", "RadialSVM"},
		{"martian", ""},
		{"", ""},
		{"Tree", ""},
		{"DecisionTree", ""},
	}
	for _, tc := range cases {
		tr, err := SelectorTrainerByFlag(tc.flag)
		if tc.want == "" {
			if err == nil || err.Error() != fmt.Sprintf("unknown selector %q", tc.flag) {
				t.Errorf("SelectorTrainerByFlag(%q) = %v, %v; want the unknown-selector error", tc.flag, tr, err)
			}
			continue
		}
		if err != nil || tr.Name() != tc.want {
			t.Errorf("SelectorTrainerByFlag(%q) = %v, %v; want %s", tc.flag, tr, err, tc.want)
		}
	}
	if len(selectorFlags) != len(AllSelectorTrainers()) {
		t.Errorf("%d selector flags for %d trainers", len(selectorFlags), len(AllSelectorTrainers()))
	}
}
