package doc2vec

import (
	"bytes"
	"encoding/json"
	"flag"
	"math"
	"os"
	"path/filepath"
	"testing"

	"querc/internal/vec"
)

// update regenerates testdata goldens: go test ./internal/doc2vec -update
var update = flag.Bool("update", false, "rewrite testdata golden files")

func corpus() [][]string {
	var docs [][]string
	for i := 0; i < 40; i++ {
		docs = append(docs, []string{"select", "a", "from", "t", "where", "x", "=", "0"})
		docs = append(docs, []string{"insert", "into", "u", "values", "y", "z"})
	}
	return docs
}

// cfg pins Workers to 1: most tests assert deterministic outputs, which is
// exactly the Workers=1 contract. Parallel training is exercised by the
// TestTrainHogwild* tests.
func cfg(mode Mode) Config {
	c := DefaultConfig()
	c.Dim = 16
	c.Epochs = 6
	c.MinCount = 1
	c.Subsample = 0
	c.Mode = mode
	c.Workers = 1
	return c
}

func TestTrainBothModes(t *testing.T) {
	for _, mode := range []Mode{PVDM, PVDBOW} {
		m, err := Train(corpus(), cfg(mode))
		if err != nil {
			t.Fatalf("%v: %v", mode, err)
		}
		if m.Dim() != 16 {
			t.Fatalf("%v: dim %d", mode, m.Dim())
		}
		if m.Docs.Rows != len(corpus()) {
			t.Fatalf("%v: %d doc vectors", mode, m.Docs.Rows)
		}
	}
}

func TestTrainEmptyCorpus(t *testing.T) {
	if _, err := Train(nil, cfg(PVDM)); err == nil {
		t.Fatal("empty corpus must fail")
	}
}

func TestMinCountTooHigh(t *testing.T) {
	c := cfg(PVDM)
	c.MinCount = 1000
	if _, err := Train(corpus(), c); err == nil {
		t.Fatal("empty vocabulary must fail")
	}
}

func TestDocVectorsSeparateTemplates(t *testing.T) {
	m, err := Train(corpus(), cfg(PVDM))
	if err != nil {
		t.Fatal(err)
	}
	// Docs alternate select/insert; compare within vs across templates.
	simSame := vec.Cosine(m.DocVector(0), m.DocVector(2))
	simDiff := vec.Cosine(m.DocVector(0), m.DocVector(1))
	if !(simSame > simDiff) {
		t.Fatalf("same-template similarity %.3f should exceed cross %.3f", simSame, simDiff)
	}
}

func TestInferDeterministicAndDiscriminative(t *testing.T) {
	m, err := Train(corpus(), cfg(PVDM))
	if err != nil {
		t.Fatal(err)
	}
	sel := []string{"select", "a", "from", "t", "where", "x", "=", "0"}
	ins := []string{"insert", "into", "u", "values", "y", "z"}
	v1, v2 := m.Infer(sel), m.Infer(sel)
	for i := range v1 {
		if v1[i] != v2[i] {
			t.Fatal("inference must be deterministic per input")
		}
	}
	simSame := vec.Cosine(m.Infer(sel), vec.Vector(m.Docs.Row(0)))
	simDiff := vec.Cosine(m.Infer(ins), vec.Vector(m.Docs.Row(0)))
	if !(simSame > simDiff) {
		t.Fatalf("inferred select vector should sit near select docs: %.3f vs %.3f", simSame, simDiff)
	}
}

func TestInferHandlesOOV(t *testing.T) {
	m, err := Train(corpus(), cfg(PVDM))
	if err != nil {
		t.Fatal(err)
	}
	v := m.Infer([]string{"completely", "novel", "tokens"})
	if len(v) != m.Dim() {
		t.Fatalf("OOV inference dim: %d", len(v))
	}
	for _, x := range v {
		if math.IsNaN(x) || math.IsInf(x, 0) {
			t.Fatal("OOV inference produced non-finite values")
		}
	}
}

func TestSaveLoadRoundTrip(t *testing.T) {
	m, err := Train(corpus(), cfg(PVDBOW))
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := m.Save(&buf); err != nil {
		t.Fatal(err)
	}
	m2, err := Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	in := []string{"select", "a", "from", "t"}
	v1, v2 := m.Infer(in), m2.Infer(in)
	for i := range v1 {
		if math.Abs(v1[i]-v2[i]) > 1e-12 {
			t.Fatal("loaded model infers differently")
		}
	}
	if m2.Docs.Rows != m.Docs.Rows {
		t.Fatal("doc vectors lost in round trip")
	}
}

func TestSameSeedSameModel(t *testing.T) {
	m1, err := Train(corpus(), cfg(PVDM))
	if err != nil {
		t.Fatal(err)
	}
	m2, err := Train(corpus(), cfg(PVDM))
	if err != nil {
		t.Fatal(err)
	}
	for i := range m1.WordIn.Data {
		if m1.WordIn.Data[i] != m2.WordIn.Data[i] {
			t.Fatal("same seed must reproduce identical weights")
		}
	}
}

func TestConfigDefaultsFilled(t *testing.T) {
	m, err := Train(corpus(), Config{Mode: PVDM, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if m.Cfg.Dim <= 0 || m.Cfg.Epochs <= 0 || m.Cfg.Window <= 0 {
		t.Fatalf("defaults not filled: %+v", m.Cfg)
	}
}

func TestModeString(t *testing.T) {
	if PVDM.String() != "pv-dm" || PVDBOW.String() != "pv-dbow" {
		t.Fatal("mode names wrong")
	}
}

// TestTrainWorkers1Golden pins the Workers=1 training output bit-for-bit:
// the deterministic serial schedule is the reference the Hogwild plane is
// measured against, and any change to the kernels or the schedule must be a
// deliberate one (regenerate with `go test ./internal/doc2vec -update`).
func TestTrainWorkers1Golden(t *testing.T) {
	m, err := Train(corpus(), cfg(PVDM))
	if err != nil {
		t.Fatal(err)
	}
	got := map[string][]float64{
		"wordIn":  m.WordIn.Data,
		"wordOut": m.WordOut.Data,
		"docs":    m.Docs.Data,
	}
	path := filepath.Join("testdata", "train_workers1_golden.json")
	if *update {
		blob, err := json.MarshalIndent(got, "", " ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, blob, 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("rewrote %s", path)
		return
	}
	blob, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("read golden (regenerate with -update): %v", err)
	}
	var want map[string][]float64
	if err := json.Unmarshal(blob, &want); err != nil {
		t.Fatal(err)
	}
	for name, w := range want {
		g := got[name]
		if len(g) != len(w) {
			t.Fatalf("%s: length %d want %d", name, len(g), len(w))
		}
		for i := range w {
			if g[i] != w[i] {
				t.Fatalf("%s[%d]: %v differs from golden %v — the Workers=1 schedule is no longer byte-identical", name, i, g[i], w[i])
			}
		}
	}
}

// TestTrainHogwildParallel exercises the lock-free multi-worker schedule
// (serialized under -race by the build-tagged mutex): the model must come out
// finite and as discriminative as the serial one.
func TestTrainHogwildParallel(t *testing.T) {
	c := cfg(PVDM)
	c.Workers = 4
	m, err := Train(corpus(), c)
	if err != nil {
		t.Fatal(err)
	}
	for _, x := range m.WordIn.Data {
		if math.IsNaN(x) || math.IsInf(x, 0) {
			t.Fatal("Hogwild training produced non-finite weights")
		}
	}
	// Same quality bar as the serial TestDocVectorsSeparateTemplates.
	simSame := vec.Cosine(m.DocVector(0), m.DocVector(2))
	simDiff := vec.Cosine(m.DocVector(0), m.DocVector(1))
	if !(simSame > simDiff) {
		t.Fatalf("parallel model lost template separation: %.3f vs %.3f", simSame, simDiff)
	}
	// Inference from a Hogwild-trained model stays deterministic per input.
	sel := []string{"select", "a", "from", "t"}
	v1, v2 := m.Infer(sel), m.Infer(sel)
	for i := range v1 {
		if v1[i] != v2[i] {
			t.Fatal("inference must stay deterministic after parallel training")
		}
	}
}

// TestTrainHogwildMoreWorkersThanDocs clamps the pool to the corpus size.
func TestTrainHogwildMoreWorkersThanDocs(t *testing.T) {
	c := cfg(PVDBOW)
	c.Workers = 64
	if _, err := Train(corpus()[:3], c); err != nil {
		t.Fatal(err)
	}
}

// TestInferAllocs pins the steady-state allocation profile of Infer: the
// returned document vector plus pool jitter, nothing per-epoch.
func TestInferAllocs(t *testing.T) {
	if vec.RaceEnabled {
		t.Skip("allocation profile differs under the race detector")
	}
	m, err := Train(corpus(), cfg(PVDM))
	if err != nil {
		t.Fatal(err)
	}
	tokens := []string{"select", "a", "from", "t", "where", "x", "=", "0"}
	for i := 0; i < 4; i++ {
		m.Infer(tokens) // warm the scratch pool
	}
	if allocs := testing.AllocsPerRun(200, func() { m.Infer(tokens) }); allocs > 2 {
		t.Fatalf("Infer allocates %.1f per op, want <= 2 (doc vector + pool jitter)", allocs)
	}

	// Growth: a text longer than any earlier one makes the pooled window
	// tables grow once; after that it is back to the steady state.
	long := append(append(append([]string{}, tokens...), tokens...), tokens...)
	m.Infer(long)
	if allocs := testing.AllocsPerRun(200, func() { m.Infer(long) }); allocs > 2 {
		t.Fatalf("Infer allocates %.1f per op after the scratch grew, want <= 2", allocs)
	}
}

// TestInferBatchParallelManyDocs drives the batch fan-out with enough
// distinct docs to engage the pool; run with -race this covers the
// concurrent-inference path.
func TestInferBatchParallelManyDocs(t *testing.T) {
	m, err := Train(corpus(), cfg(PVDM))
	if err != nil {
		t.Fatal(err)
	}
	words := []string{"select", "a", "from", "t", "where", "x", "insert", "into", "u", "values", "y", "z"}
	docs := make([][]string, 300)
	for i := range docs {
		docs[i] = []string{words[i%len(words)], words[(i/2)%len(words)], words[(i/3)%len(words)]}
	}
	batch := m.InferBatch(docs)
	for i, doc := range docs {
		want := m.Infer(doc)
		for j := range want {
			if batch[i][j] != want[j] {
				t.Fatalf("batch[%d] differs from serial Infer at dim %d", i, j)
			}
		}
	}
}

func TestInferBatchMatchesInferAndDedupes(t *testing.T) {
	m, err := Train(corpus(), cfg(PVDM))
	if err != nil {
		t.Fatal(err)
	}
	docs := [][]string{
		{"select", "a", "from", "t"},
		{"insert", "into", "u"},
		{"select", "a", "from", "t"}, // duplicate of docs[0]
		{"select", "b"},
	}
	batch := m.InferBatch(docs)
	if len(batch) != len(docs) {
		t.Fatalf("batch length: %d", len(batch))
	}
	for i, doc := range docs {
		want := m.Infer(doc)
		for j := range want {
			if batch[i][j] != want[j] {
				t.Fatalf("batch[%d] differs from Infer at dim %d", i, j)
			}
		}
	}
	// Duplicated inputs share one inference (and its backing vector).
	if &batch[0][0] != &batch[2][0] {
		t.Fatal("duplicate sequences must share the first occurrence's vector")
	}
	if got := m.InferBatch(nil); len(got) != 0 {
		t.Fatalf("empty batch: %d", len(got))
	}
}
