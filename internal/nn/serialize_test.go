package nn

import (
	"bytes"
	"encoding/binary"
	"math"
	"math/rand"
	"strings"
	"testing"

	"lumos/internal/autodiff"
	"lumos/internal/tensor"
)

// paramSet is a minimal Module for codec tests.
type paramSet []*Param

func (ps paramSet) Params() []*Param { return ps }

func newParamSet(rng *rand.Rand, names ...string) paramSet {
	var ps paramSet
	for _, n := range names {
		ps = append(ps, &Param{Name: n, V: autodiff.Var(tensor.Uniform(3, 2, -1, 1, rng))})
	}
	return ps
}

func checkpointOf(t testing.TB, m Module) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := SaveParams(&buf, m); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// lengthFieldCase overwrites one u32 length field of a good checkpoint.
type lengthFieldCase struct {
	name string
	off  int
	val  uint32
	want string // substring of the expected decode error
}

// corruptLengthFields is the table of TestLoadParamsCorruptLengthFields,
// over a checkpoint of newParamSet(…, "a", "b"). Offsets into the stream:
// magic u32, count u32, then per parameter nameLen u32, name, blobLen u32,
// blob.
func corruptLengthFields() []lengthFieldCase {
	countOff := 4
	nameLenOff := 8
	blobLenOff := 8 + 4 + 1 // nameLen + 1-byte name "a"
	return []lengthFieldCase{
		{"huge count", countOff, 1 << 30, "bound is"},
		{"huge name length", nameLenOff, 1 << 30, "name length"},
		{"zero name length", nameLenOff, 0, "name length"},
		{"huge blob length", blobLenOff, 1 << 30, "bound is"},
		{"blob length past EOF", blobLenOff, 1 << 20, "payload"},
	}
}

func (tc lengthFieldCase) apply(good []byte) []byte {
	corrupt := append([]byte(nil), good...)
	binary.LittleEndian.PutUint32(corrupt[tc.off:], tc.val)
	return corrupt
}

// TestLoadParamsCorruptLengthFields drives every untrusted length field out
// of bounds and expects a loud decode error in place of the historical
// multi-GB up-front allocation.
func TestLoadParamsCorruptLengthFields(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	good := checkpointOf(t, newParamSet(rng, "a", "b"))
	for _, tc := range corruptLengthFields() {
		t.Run(tc.name, func(t *testing.T) {
			err := LoadParams(bytes.NewReader(tc.apply(good)), newParamSet(rand.New(rand.NewSource(5)), "a", "b"))
			if err == nil {
				t.Fatal("corrupt checkpoint loaded without error")
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("error %q does not mention %q", err, tc.want)
			}
		})
	}
}

// TestLoadParamsTruncation cuts the checkpoint at every byte boundary; each
// prefix must fail cleanly (no panic, no silent success).
func TestLoadParamsTruncation(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	m := newParamSet(rng, "w", "b")
	good := checkpointOf(t, m)
	for n := 0; n < len(good); n++ {
		if err := LoadParams(bytes.NewReader(good[:n]), newParamSet(rand.New(rand.NewSource(6)), "w", "b")); err == nil {
			t.Fatalf("truncated checkpoint (%d of %d bytes) loaded without error", n, len(good))
		}
	}
	if err := LoadParams(bytes.NewReader(good), newParamSet(rand.New(rand.NewSource(7)), "w", "b")); err != nil {
		t.Fatalf("intact checkpoint failed to load: %v", err)
	}
}

// FuzzLoadParams feeds arbitrary bytes to LoadParams against a two-parameter
// model. The corpus is seeded with the inputs of the corruption and
// truncation tests above; regressions found by fuzzing live in
// testdata/fuzz/FuzzLoadParams. Loading must never panic or allocate
// beyond the input, and a stream it accepts must survive a save/load round
// trip unchanged.
func FuzzLoadParams(f *testing.F) {
	good := checkpointOf(f, newParamSet(rand.New(rand.NewSource(21)), "a", "b"))
	for _, tc := range corruptLengthFields() {
		f.Add(tc.apply(good))
	}
	for n := 0; n <= len(good); n++ {
		f.Add(good[:n])
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		m := newParamSet(rand.New(rand.NewSource(5)), "a", "b")
		if err := LoadParams(bytes.NewReader(data), m); err != nil {
			return
		}
		again := newParamSet(rand.New(rand.NewSource(6)), "a", "b")
		if err := LoadParams(bytes.NewReader(checkpointOf(t, m)), again); err != nil {
			t.Fatalf("re-saved checkpoint failed to load: %v", err)
		}
		for i, p := range m {
			want, got := p.V.Data.Data(), again[i].V.Data.Data()
			for j := range want {
				if math.Float64bits(want[j]) != math.Float64bits(got[j]) {
					t.Fatalf("parameter %q changed across save/load", p.Name)
				}
			}
		}
	})
}

func TestLoadParamsRejectsDuplicateNames(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	// SaveParams refuses to write duplicates, so splice a stream by hand:
	// serialize {x} and repeat its parameter record with count patched to 2.
	good := checkpointOf(t, newParamSet(rng, "x"))
	record := good[8:] // past magic + count
	dup := append([]byte(nil), good[:4]...)
	dup = binary.LittleEndian.AppendUint32(dup, 2)
	dup = append(dup, record...)
	dup = append(dup, record...)
	err := LoadParams(bytes.NewReader(dup), newParamSet(rand.New(rand.NewSource(8)), "x", "y"))
	if err == nil || !strings.Contains(err.Error(), "duplicate") {
		t.Fatalf("want duplicate-name error, got %v", err)
	}
}

func TestSaveParamsRejectsDuplicateNames(t *testing.T) {
	rng := rand.New(rand.NewSource(24))
	m := newParamSet(rng, "x", "x")
	if err := SaveParams(&bytes.Buffer{}, m); err == nil || !strings.Contains(err.Error(), "duplicate") {
		t.Fatalf("want duplicate-name error, got %v", err)
	}
}

// TestLoadParamsSurfacesExtras loads a larger checkpoint into a smaller
// model: the stream parameters the model lacks must be named in the error
// instead of being silently dropped.
func TestLoadParamsSurfacesExtras(t *testing.T) {
	rng := rand.New(rand.NewSource(25))
	writer := newParamSet(rng, "shared", "writer.only1", "writer.only2")
	good := checkpointOf(t, writer)
	reader := newParamSet(rand.New(rand.NewSource(9)), "shared")
	err := LoadParams(bytes.NewReader(good), reader)
	if err == nil {
		t.Fatal("extra stream parameters loaded without error")
	}
	for _, name := range []string{"writer.only1", "writer.only2"} {
		if !strings.Contains(err.Error(), name) {
			t.Fatalf("error %q does not name extra parameter %q", err, name)
		}
	}
	if strings.Contains(err.Error(), `"shared"`) {
		t.Fatalf("error %q names a parameter the model does have", err)
	}
}

func TestLoadParamsRejectsTrailingData(t *testing.T) {
	rng := rand.New(rand.NewSource(26))
	m := newParamSet(rng, "p")
	good := checkpointOf(t, m)
	err := LoadParams(bytes.NewReader(append(good, 0xff)), newParamSet(rand.New(rand.NewSource(10)), "p"))
	if err == nil || !strings.Contains(err.Error(), "trailing") {
		t.Fatalf("want trailing-data error, got %v", err)
	}
}

// TestLoadParamsFailureLeavesModelUntouched: every validation error must
// fire before any parameter is mutated.
func TestLoadParamsFailureLeavesModelUntouched(t *testing.T) {
	rng := rand.New(rand.NewSource(27))
	writer := newParamSet(rng, "a", "extra")
	good := checkpointOf(t, writer)
	reader := newParamSet(rand.New(rand.NewSource(11)), "a")
	before := reader[0].V.Data.Clone()
	if err := LoadParams(bytes.NewReader(good), reader); err == nil {
		t.Fatal("want error")
	}
	if !tensor.ApproxEqual(reader[0].V.Data, before, 0) {
		t.Fatal("failed load mutated the model")
	}
}

// TestMinCheckpointBytesIsTight: for real architectures, the bound is the
// exact size of the saved stream minus the name bytes past the first of
// each parameter — it never over-asks, so no valid checkpoint is refused.
func TestMinCheckpointBytesIsTight(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for _, cfg := range []GNNConfig{
		{Backbone: GCN, InDim: 7, Hidden: 5, OutDim: 3, Layers: 1},
		{Backbone: GCN, InDim: 7, Hidden: 5, OutDim: 3, Layers: 3},
		{Backbone: GAT, InDim: 7, Hidden: 5, OutDim: 3, Layers: 1, Heads: 2},
		{Backbone: GAT, InDim: 7, Hidden: 5, OutDim: 3, Layers: 3, Heads: 4},
	} {
		if err := cfg.Validate(); err != nil {
			t.Fatal(err)
		}
		for _, classes := range []int{0, 4} {
			enc, err := NewGNN(cfg, rng)
			if err != nil {
				t.Fatal(err)
			}
			ps := paramSet(enc.Params())
			if classes > 0 {
				ps = append(ps, NewLinear("head", cfg.OutDim, classes, rng).Params()...)
			}
			slack := 0
			for _, p := range ps {
				slack += len(p.Name) - 1
			}
			got := MinCheckpointBytes(cfg, classes)
			if want := uint64(len(checkpointOf(t, ps)) - slack); got != want {
				t.Errorf("%+v classes %d: MinCheckpointBytes = %d, want %d", cfg, classes, got, want)
			}
		}
	}
}

// TestMinCheckpointBytesSaturates: architectures whose size does not fit in
// 64 bits, or that hold more parameters than a checkpoint may, need
// math.MaxUint64 bytes rather than a wrapped small number.
func TestMinCheckpointBytesSaturates(t *testing.T) {
	const big = 1 << 24
	for _, cfg := range []GNNConfig{
		// 2^14 heads of 2^24×2^24 projections: 2^65 bytes in under
		// MaxCheckpointParams matrices.
		{Backbone: GAT, InDim: big, Hidden: big, OutDim: big, Layers: 1, Heads: 1 << 14},
		{Backbone: GCN, InDim: 1, Hidden: 1, OutDim: 1, Layers: big},
		{Backbone: GAT, InDim: 1, Hidden: 1, OutDim: 1, Layers: 1, Heads: MaxCheckpointParams},
	} {
		if got := MinCheckpointBytes(cfg, big); got != math.MaxUint64 {
			t.Errorf("%+v: MinCheckpointBytes = %d, want MaxUint64", cfg, got)
		}
	}
}
