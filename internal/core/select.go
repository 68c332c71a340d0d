package core

import (
	"fmt"
	"math"

	"kernelselect/internal/dataset"
	"kernelselect/internal/mat"
	"kernelselect/internal/ml/forest"
	"kernelselect/internal/ml/knn"
	"kernelselect/internal/ml/metrics"
	"kernelselect/internal/ml/scale"
	"kernelselect/internal/ml/svm"
	"kernelselect/internal/ml/tree"
)

// Selector picks, for a GEMM's feature vector (M, K, N), an index into the
// pruned configuration list it was trained for. This is the runtime piece a
// compute library ships (Section IV of the paper).
type Selector interface {
	Name() string
	Select(features []float64) int
}

// SelectorTrainer fits a Selector on the training dataset restricted to the
// given configuration selection.
type SelectorTrainer interface {
	Name() string
	Train(train *dataset.PerfDataset, selected []int, seed uint64) Selector
}

// TrainLabels computes the classification target: for each shape in ds, the
// index (into selected) of the configuration with the best normalized
// performance.
func TrainLabels(ds *dataset.PerfDataset, selected []int) []int {
	if len(selected) == 0 {
		panic("core: TrainLabels with empty selection")
	}
	labels := make([]int, ds.NumShapes())
	for i := range labels {
		row := ds.Norm.Row(i)
		best := 0
		for k, c := range selected {
			if row[c] > row[selected[best]] {
				best = k
			}
		}
		labels[i] = best
	}
	return labels
}

// SelectorScore evaluates a trained selector on a dataset: the geometric
// mean over shapes of the normalized performance of the configuration the
// selector picks, as a percentage of the absolute optimum (the metric of
// Table I).
func SelectorScore(ds *dataset.PerfDataset, selected []int, sel Selector) float64 {
	scores := make([]float64, ds.NumShapes())
	for i := range scores {
		k := sel.Select(ds.Shapes[i].Features())
		if k < 0 || k >= len(selected) {
			panic(fmt.Sprintf("core: selector %q returned %d for %d configurations", sel.Name(), k, len(selected)))
		}
		scores[i] = ds.Norm.At(i, selected[k])
	}
	return 100 * metrics.GeoMean(scores)
}

// ---------------------------------------------------------------------------
// Decision tree selector
// ---------------------------------------------------------------------------

// DecisionTreeSelector trains a CART classifier on raw (M, K, N) features —
// the paper's recommended deployment selector.
type DecisionTreeSelector struct {
	MaxDepth       int // 0 = unlimited
	MinSamplesLeaf int // 0 → 1
}

// Name implements SelectorTrainer.
func (DecisionTreeSelector) Name() string { return "DecisionTree" }

type treeSelector struct {
	c *tree.Classifier
}

func (s treeSelector) Name() string                  { return "DecisionTree" }
func (s treeSelector) Select(features []float64) int { return s.c.Predict(features) }

// Train implements SelectorTrainer.
func (d DecisionTreeSelector) Train(train *dataset.PerfDataset, selected []int, seed uint64) Selector {
	labels := TrainLabels(train, selected)
	c := tree.FitClassifier(train.Features(), labels, len(selected), tree.Options{
		MaxDepth:       d.MaxDepth,
		MinSamplesLeaf: d.MinSamplesLeaf,
		Seed:           seed,
	})
	return treeSelector{c: c}
}

// NewTreeSelector wraps an already-fitted CART classifier as a runtime
// Selector — the constructor internal/portability uses to package its
// unified (device-feature-augmented) classifier into a servable library.
func NewTreeSelector(c *tree.Classifier) Selector { return treeSelector{c: c} }

// Tree exposes the fitted classifier of a tree selector (for code
// generation); it returns false if sel is not a tree selector.
func Tree(sel Selector) (*tree.Classifier, bool) {
	ts, ok := sel.(treeSelector)
	if !ok {
		return nil, false
	}
	return ts.c, true
}

// Forest exposes the fitted ensemble of a random-forest selector (for
// feature-importance inspection); it returns false otherwise.
func Forest(sel Selector) (*forest.Classifier, bool) {
	fs, ok := sel.(forestSelector)
	if !ok {
		return nil, false
	}
	return fs.f, true
}

// ---------------------------------------------------------------------------
// Random forest selector
// ---------------------------------------------------------------------------

// RandomForestSelector bags CART trees over bootstrap resamples.
type RandomForestSelector struct {
	NumTrees int // 0 → 100
}

// Name implements SelectorTrainer.
func (RandomForestSelector) Name() string { return "RandomForest" }

type forestSelector struct {
	f *forest.Classifier
}

func (s forestSelector) Name() string                  { return "RandomForest" }
func (s forestSelector) Select(features []float64) int { return s.f.Predict(features) }

// Train implements SelectorTrainer.
func (r RandomForestSelector) Train(train *dataset.PerfDataset, selected []int, seed uint64) Selector {
	labels := TrainLabels(train, selected)
	f := forest.FitClassifier(train.Features(), labels, len(selected), forest.Options{
		NumTrees: r.NumTrees,
		Seed:     seed,
	})
	return forestSelector{f: f}
}

// ---------------------------------------------------------------------------
// k-NN selectors
// ---------------------------------------------------------------------------

// KNNSelector is a k-nearest-neighbour selector on raw features
// (scikit-learn's default configuration, as in the paper's comparison).
type KNNSelector struct {
	K int // 0 → 1
}

// Name implements SelectorTrainer.
func (k KNNSelector) Name() string {
	n := k.K
	if n <= 0 {
		n = 1
	}
	return fmt.Sprintf("%dNearestNeighbor", n)
}

type knnSelector struct {
	c    *knn.Classifier
	name string
}

func (s knnSelector) Name() string                  { return s.name }
func (s knnSelector) Select(features []float64) int { return s.c.Predict(features) }

// Train implements SelectorTrainer.
func (k KNNSelector) Train(train *dataset.PerfDataset, selected []int, _ uint64) Selector {
	kk := k.K
	if kk <= 0 {
		kk = 1
	}
	if kk > train.NumShapes() {
		kk = train.NumShapes()
	}
	labels := TrainLabels(train, selected)
	c := knn.Fit(train.Features(), labels, len(selected), kk)
	return knnSelector{c: c, name: k.Name()}
}

// ---------------------------------------------------------------------------
// SVM selectors
// ---------------------------------------------------------------------------

// LinearSVMSelector trains a one-vs-rest linear SVM. Features are
// log-transformed and standardized internally: matrix sizes live on a
// multiplicative scale spanning six orders of magnitude, so the linear
// decision boundaries the paper's LinearSVC finds correspond to planes in
// log-size space; the raw-scale problem is also too ill-conditioned for the
// SMO dual solver. The preprocessing is part of this selector, not of the
// shared pipeline (the tree, forest and k-NN selectors see raw features, as
// scikit-learn defaults do).
type LinearSVMSelector struct {
	C float64 // box constraint; 0 → 1
}

// Name implements SelectorTrainer.
func (LinearSVMSelector) Name() string { return "LinearSVM" }

type linearSVMSelector struct {
	m  *svm.Linear
	sc *scale.Scaler
}

func logFeatures(f []float64) []float64 {
	out := make([]float64, len(f))
	for i, v := range f {
		out[i] = math.Log(v)
	}
	return out
}

func (s linearSVMSelector) Name() string { return "LinearSVM" }
func (s linearSVMSelector) Select(features []float64) int {
	return s.m.Predict(s.sc.TransformRow(logFeatures(features)))
}

// Train implements SelectorTrainer.
func (l LinearSVMSelector) Train(train *dataset.PerfDataset, selected []int, seed uint64) Selector {
	labels := TrainLabels(train, selected)
	raw := train.Features()
	lx := mat.NewDense(raw.Rows(), raw.Cols())
	for i := 0; i < raw.Rows(); i++ {
		copy(lx.Row(i), logFeatures(raw.Row(i)))
	}
	sc, x := scale.FitTransform(lx)
	m := svm.FitLinear(x, labels, len(selected), svm.LinearOptions{
		C:    l.C,
		Seed: seed,
	})
	return linearSVMSelector{m: m, sc: sc}
}

// RadialSVMSelector trains a one-vs-rest RBF-kernel SVM on raw features with
// the paper-era scikit-learn default gamma (1/n_features). On matrix-size
// features this is the degenerate regime that collapses to majority-class
// prediction — reproducing the RadialSVM row of Table I by mechanism, not by
// fiat. Set Gamma explicitly to use the selector non-degenerately.
type RadialSVMSelector struct {
	C     float64 // box constraint; 0 → 1
	Gamma float64 // 0 → 1/n_features (the degenerate paper-era default)
}

// Name implements SelectorTrainer.
func (RadialSVMSelector) Name() string { return "RadialSVM" }

type radialSVMSelector struct {
	m *svm.RBF
}

func (s radialSVMSelector) Name() string                  { return "RadialSVM" }
func (s radialSVMSelector) Select(features []float64) int { return s.m.Predict(features) }

// Train implements SelectorTrainer.
func (r RadialSVMSelector) Train(train *dataset.PerfDataset, selected []int, seed uint64) Selector {
	labels := TrainLabels(train, selected)
	m := svm.FitRBF(train.Features(), labels, len(selected), svm.RBFOptions{
		C:     r.C,
		Gamma: r.Gamma,
		Seed:  seed,
	})
	return radialSVMSelector{m: m}
}

// ---------------------------------------------------------------------------

// StaticSelector always returns the same index — the "just ship the overall
// best kernel" strawman, useful as a baseline and for testing.
type StaticSelector struct {
	Index int
}

// Name implements Selector.
func (StaticSelector) Name() string { return "Static" }

// Select implements Selector.
func (s StaticSelector) Select([]float64) int { return s.Index }

// AllSelectorTrainers returns Table I's six classifiers in the paper's order.
func AllSelectorTrainers() []SelectorTrainer {
	return []SelectorTrainer{
		DecisionTreeSelector{},
		RandomForestSelector{},
		KNNSelector{K: 1},
		KNNSelector{K: 3},
		LinearSVMSelector{},
		RadialSVMSelector{},
	}
}

// selectorFlags are the command-line (-selector) names of
// AllSelectorTrainers, in the same order.
var selectorFlags = []string{"tree", "forest", "1nn", "3nn", "linear-svm", "radial-svm"}

// SelectorTrainerByFlag resolves a -selector flag value (tree, forest, 1nn,
// 3nn, linear-svm or radial-svm) to its trainer.
func SelectorTrainerByFlag(name string) (SelectorTrainer, error) {
	for i, tr := range AllSelectorTrainers() {
		if selectorFlags[i] == name {
			return tr, nil
		}
	}
	return nil, fmt.Errorf("unknown selector %q", name)
}
