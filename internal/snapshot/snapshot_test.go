package snapshot

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"lumos/internal/core"
	"lumos/internal/graph"
	"lumos/internal/nn"
)

// trainedSystem briefly trains a small system through the public core API.
func trainedSystem(t testing.TB, task core.Task, seed int64) (*core.System, *graph.NodeSplit, *graph.EdgeSplit) {
	t.Helper()
	g, err := graph.Generate(graph.GenConfig{
		Name: "snaptest", N: 40, M: 140, Classes: 3, FeatureDim: 12,
		Homophily: 0.85, Seed: seed,
	})
	if err != nil {
		t.Fatal(err)
	}
	cfg := core.Config{
		Task: task, Epochs: 2, MCMCIterations: 10, Shards: 5, Workers: 2, Seed: seed,
	}
	rng := rand.New(rand.NewSource(seed))
	if task == core.Supervised {
		split, err := graph.SplitNodes(g, 0.5, 0.25, rng)
		if err != nil {
			t.Fatal(err)
		}
		sys, err := core.NewSystem(g, g, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := sys.TrainSupervised(split); err != nil {
			t.Fatal(err)
		}
		return sys, split, nil
	}
	es, err := graph.SplitEdges(g, 0.8, 0.05, rng)
	if err != nil {
		t.Fatal(err)
	}
	sys, err := core.NewSystem(es.TrainGraph, g, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sys.TrainUnsupervised(es); err != nil {
		t.Fatal(err)
	}
	return sys, nil, es
}

func encodeOf(t testing.TB, s *Snapshot) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := s.Encode(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestSnapshotRoundTrip: capture → encode → decode must reproduce metadata
// and answer queries bit-identically to the live training system, for both
// tasks.
func TestSnapshotRoundTrip(t *testing.T) {
	t.Run("supervised", func(t *testing.T) {
		sys, split, _ := trainedSystem(t, core.Supervised, 41)
		meta := Meta{
			Version: 7, Dataset: "snaptest", Seed: 41, Round: 2,
			Metric: 0.5, MetricName: "accuracy", CreatedUnix: 1700000000,
		}
		snap, err := Capture(sys, meta)
		if err != nil {
			t.Fatal(err)
		}
		got, err := Decode(bytes.NewReader(encodeOf(t, snap)))
		if err != nil {
			t.Fatal(err)
		}
		want := meta
		want.Task, want.Backbone = "supervised", "GCN"
		if got.Meta != want {
			t.Fatalf("metadata round trip: got %+v, want %+v", got.Meta, want)
		}
		if got.Model != snap.Model || got.Classes != snap.Classes || got.Shards != snap.Shards {
			t.Fatalf("architecture round trip: got %+v/%d/%d", got.Model, got.Classes, got.Shards)
		}

		inf, err := got.System()
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(sys.Embeddings().Data(), inf.Embeddings().Data()) {
			t.Fatal("decoded embeddings differ from training system")
		}
		wp, err := sys.Predictions()
		if err != nil {
			t.Fatal(err)
		}
		gp, err := inf.Predictions()
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(wp, gp) {
			t.Fatal("decoded predictions differ from training system")
		}
		acc, err := sys.EvaluateAccuracy(split.IsTest)
		if err != nil {
			t.Fatal(err)
		}
		correct, total := 0, 0
		for v, mask := range split.IsTest {
			if !mask {
				continue
			}
			total++
			if gp[v] == sys.G.Labels[v] {
				correct++
			}
		}
		if served := float64(correct) / float64(total); served != acc {
			t.Fatalf("accuracy from decoded snapshot %v != EvaluateAccuracy %v", served, acc)
		}
	})

	t.Run("unsupervised", func(t *testing.T) {
		sys, _, es := trainedSystem(t, core.Unsupervised, 43)
		snap, err := Capture(sys, Meta{Version: 1})
		if err != nil {
			t.Fatal(err)
		}
		if snap.Head != nil || snap.Classes != 0 {
			t.Fatalf("unsupervised capture has a head (%d classes)", snap.Classes)
		}
		got, err := Decode(bytes.NewReader(encodeOf(t, snap)))
		if err != nil {
			t.Fatal(err)
		}
		inf, err := got.System()
		if err != nil {
			t.Fatal(err)
		}
		pairs := append(append([][2]int(nil), es.Test...), es.TestNeg...)
		ws, err := sys.PairScores(pairs)
		if err != nil {
			t.Fatal(err)
		}
		gs, err := inf.PairScores(pairs)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(ws, gs) {
			t.Fatal("decoded pair scores differ from training system")
		}
		if _, err := inf.Predictions(); err == nil {
			t.Fatal("headless snapshot answered class predictions")
		}
	})
}

// TestSnapshotCaptureIsFrozen: training after Capture must not change what
// the snapshot decodes to.
func TestSnapshotCaptureIsFrozen(t *testing.T) {
	sys, split, _ := trainedSystem(t, core.Supervised, 47)
	snap, err := Capture(sys, Meta{Version: 1})
	if err != nil {
		t.Fatal(err)
	}
	before := encodeOf(t, snap)
	if _, err := sys.TrainSupervised(split); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(before, encodeOf(t, snap)) {
		t.Fatal("continued training mutated a captured snapshot")
	}
}

// TestSnapshotCorruption flips one bit at sampled offsets; every corruption
// must surface as a decode error (CRC mismatch or a bounds check), never a
// silently-wrong model or a huge allocation.
func TestSnapshotCorruption(t *testing.T) {
	good := corruptionBase(t)
	if _, err := Decode(bytes.NewReader(good)); err != nil {
		t.Fatalf("intact snapshot failed to decode: %v", err)
	}
	for _, fl := range bitFlips(good) {
		if _, err := Decode(bytes.NewReader(fl.data)); err == nil {
			t.Fatalf("bit flip at offset %d (mask %#x) decoded without error", fl.off, fl.mask)
		}
	}
}

// corruptionBase is the intact encoding TestSnapshotCorruption flips bits in.
func corruptionBase(t testing.TB) []byte {
	sys, _, _ := trainedSystem(t, core.Supervised, 53)
	snap, err := Capture(sys, Meta{Version: 3})
	if err != nil {
		t.Fatal(err)
	}
	return encodeOf(t, snap)
}

type bitFlip struct {
	off  int
	mask byte
	data []byte
}

// bitFlips returns copies of good with one low or high bit flipped, at ~64
// offsets spread over the encoding plus every trailer byte.
func bitFlips(good []byte) []bitFlip {
	step := len(good) / 64
	if step < 1 {
		step = 1
	}
	offsets := make([]int, 0, 80)
	for off := 0; off < len(good); off += step {
		offsets = append(offsets, off)
	}
	// Always include the trailer bytes.
	for off := len(good) - 4; off < len(good); off++ {
		offsets = append(offsets, off)
	}
	var out []bitFlip
	for _, off := range offsets {
		for _, mask := range []byte{0x01, 0x80} {
			corrupt := append([]byte(nil), good...)
			corrupt[off] ^= mask
			out = append(out, bitFlip{off, mask, corrupt})
		}
	}
	return out
}

// TestSnapshotTruncation: every truncated prefix must fail cleanly.
func TestSnapshotTruncation(t *testing.T) {
	good := truncationBase(t)
	for _, n := range truncationLengths(len(good)) {
		if _, err := Decode(bytes.NewReader(good[:n])); err == nil {
			t.Fatalf("truncated snapshot (%d of %d bytes) decoded without error", n, len(good))
		}
	}
}

// truncationBase is the intact encoding TestSnapshotTruncation cuts short.
func truncationBase(t testing.TB) []byte {
	sys, _, _ := trainedSystem(t, core.Supervised, 59)
	snap, err := Capture(sys, Meta{Version: 2})
	if err != nil {
		t.Fatal(err)
	}
	return encodeOf(t, snap)
}

// truncationLengths lists the prefix lengths TestSnapshotTruncation cuts an
// n-byte encoding to: every boundary through the fixed-size head, then
// sampled thereafter.
func truncationLengths(n int) []int {
	var out []int
	for k := 0; k < n; k++ {
		if k <= 256 || k%89 == 0 {
			out = append(out, k)
		}
	}
	return out
}

// FuzzSnapshotDecode feeds arbitrary bytes to Decode. The corpus is seeded
// with the inputs of TestSnapshotCorruption and TestSnapshotTruncation
// (and their intact encodings); regressions found by fuzzing live in
// testdata/fuzz/FuzzSnapshotDecode. Decoding must never panic or allocate
// beyond the input, and a snapshot it accepts must re-encode.
func FuzzSnapshotDecode(f *testing.F) {
	good := corruptionBase(f)
	f.Add(good)
	for _, fl := range bitFlips(good) {
		f.Add(fl.data)
	}
	good = truncationBase(f)
	f.Add(good)
	for _, n := range truncationLengths(len(good)) {
		if n <= 256 {
			f.Add(good[:n])
		}
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		s, err := Decode(bytes.NewReader(data))
		if err != nil {
			return
		}
		if err := s.Encode(io.Discard); err != nil {
			t.Fatalf("decoded snapshot does not re-encode: %v", err)
		}
	})
}

// seal recomputes the CRC-32 trailer of an encoding, so an edited body
// passes the checksum and reaches the decoder's post-checksum checks.
func seal(data []byte) []byte {
	out := append([]byte(nil), data...)
	if len(out) >= 4 {
		binary.LittleEndian.PutUint32(out[len(out)-4:], crc32.ChecksumIEEE(out[:len(out)-4]))
	}
	return out
}

// archEdit rewrites the model header of an encoding: the backbone byte
// (to GAT when gat is set) and the u32 fields after it (input, hidden and
// output dims, layers, heads), then the class count behind the f64
// dropout. A zero field is left as is.
type archEdit struct {
	name    string
	gat     bool
	dims    [5]uint32
	classes uint32
}

func (a archEdit) apply(good []byte) []byte {
	out := append([]byte(nil), good...)
	// magic u32, format u32, version u64, metadata length u32 + JSON.
	off := 20 + int(binary.LittleEndian.Uint32(out[16:]))
	if a.gat {
		out[off] = byte(nn.GAT)
	}
	off++
	for i, d := range a.dims {
		if d != 0 {
			binary.LittleEndian.PutUint32(out[off+4*i:], d)
		}
	}
	if a.classes != 0 {
		binary.LittleEndian.PutUint32(out[off+20+8:], a.classes)
	}
	return seal(out)
}

// hugeArchitectures declare model dims within maxDim each whose parameters
// would not fit in the weights the snapshot carries.
var hugeArchitectures = []archEdit{
	// 2^48 encoder entries: a makeslice panic before the weights check.
	{name: "square 2^24 layer", dims: [5]uint32{maxDim, maxDim}},
	{name: "2^24 layers", dims: [5]uint32{3: maxDim}},
	{name: "2^24 GAT heads", gat: true, dims: [5]uint32{4: maxDim}},
	{name: "2^24-class head", dims: [5]uint32{2: maxDim}, classes: maxDim},
	{name: "2^20-wide input", dims: [5]uint32{0: 1 << 20}},
}

// TestSnapshotDecodeRejectsHugeArchitecture: a checksum-valid snapshot
// whose model dims outgrow its weights section is refused before any
// parameter is allocated.
func TestSnapshotDecodeRejectsHugeArchitecture(t *testing.T) {
	good := corruptionBase(t)
	for _, a := range hugeArchitectures {
		data := a.apply(good)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		_, err := Decode(bytes.NewReader(data))
		runtime.ReadMemStats(&after)
		if err == nil || !strings.Contains(err.Error(), "architecture needs") {
			t.Errorf("%s: err = %v, want the architecture size check", a.name, err)
		}
		if grew := after.TotalAlloc - before.TotalAlloc; grew > 16<<20 {
			t.Errorf("%s: decoding allocated %d bytes", a.name, grew)
		}
	}
}

// FuzzSnapshotDecodeSealed is FuzzSnapshotDecode with the checksum trailer
// recomputed over every input before Decode sees it. Unsealed mutations
// almost never pass the CRC, so this is the target that reaches the
// post-checksum code: embedding and forest validation, the architecture
// size check, model rebuild and weight restore. Seeds are the bit flips and
// truncations of FuzzSnapshotDecode plus hugeArchitectures; regressions
// live in testdata/fuzz/FuzzSnapshotDecodeSealed.
func FuzzSnapshotDecodeSealed(f *testing.F) {
	good := corruptionBase(f)
	f.Add(good)
	for _, fl := range bitFlips(good) {
		f.Add(fl.data)
	}
	for _, a := range hugeArchitectures {
		f.Add(a.apply(good))
	}
	good = truncationBase(f)
	for _, n := range truncationLengths(len(good)) {
		if n <= 256 {
			f.Add(good[:n])
		}
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		s, err := Decode(bytes.NewReader(seal(data)))
		if err != nil {
			return
		}
		if err := s.Encode(io.Discard); err != nil {
			t.Fatalf("decoded snapshot does not re-encode: %v", err)
		}
	})
}

func TestSnapshotBadMagicAndFormat(t *testing.T) {
	sys, _, _ := trainedSystem(t, core.Supervised, 61)
	snap, err := Capture(sys, Meta{Version: 1})
	if err != nil {
		t.Fatal(err)
	}
	good := encodeOf(t, snap)

	badMagic := append([]byte(nil), good...)
	binary.LittleEndian.PutUint32(badMagic[0:], 0xdeadbeef)
	if _, err := Decode(bytes.NewReader(badMagic)); err == nil || !strings.Contains(err.Error(), "magic") {
		t.Fatalf("want bad-magic error, got %v", err)
	}

	badFormat := append([]byte(nil), good...)
	binary.LittleEndian.PutUint32(badFormat[4:], formatVersion+1)
	if _, err := Decode(bytes.NewReader(badFormat)); err == nil || !strings.Contains(err.Error(), "format version") {
		t.Fatalf("want format-version error, got %v", err)
	}

	if _, err := Decode(bytes.NewReader(append(good, 0x00))); err == nil || !strings.Contains(err.Error(), "trailing") {
		t.Fatalf("want trailing-data error, got %v", err)
	}

	dir := t.TempDir()
	path := filepath.Join(dir, "model.snap")
	if err := os.WriteFile(path, badMagic, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := PeekVersion(path); err == nil || !strings.Contains(err.Error(), "magic") {
		t.Fatalf("PeekVersion on bad magic: got %v", err)
	}
}

// TestSnapshotPublish exercises the Write/PublishNext/PeekVersion loop:
// atomic publish, monotonically increasing versions, recovery from an
// unreadable predecessor.
func TestSnapshotPublish(t *testing.T) {
	sys, _, _ := trainedSystem(t, core.Supervised, 67)
	snap, err := Capture(sys, Meta{Dataset: "snaptest"})
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	path := filepath.Join(dir, "model.snap")

	v, err := PublishNext(path, snap)
	if err != nil {
		t.Fatal(err)
	}
	if v != 1 {
		t.Fatalf("first publish got version %d, want 1", v)
	}
	if got, err := PeekVersion(path); err != nil || got != 1 {
		t.Fatalf("PeekVersion = %d, %v; want 1", got, err)
	}

	v, err = PublishNext(path, snap)
	if err != nil {
		t.Fatal(err)
	}
	if v != 2 {
		t.Fatalf("second publish got version %d, want 2", v)
	}
	loaded, err := Read(path)
	if err != nil {
		t.Fatal(err)
	}
	if loaded.Meta.Version != 2 || loaded.Meta.Dataset != "snaptest" {
		t.Fatalf("read back %+v", loaded.Meta)
	}

	// No temp files may be left behind by the atomic rename.
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 || entries[0].Name() != "model.snap" {
		t.Fatalf("publish left extra files: %v", entries)
	}

	// An unreadable predecessor restarts the version sequence rather than
	// blocking publishes.
	garbled := filepath.Join(dir, "garbled.snap")
	if err := os.WriteFile(garbled, []byte("not a snapshot"), 0o644); err != nil {
		t.Fatal(err)
	}
	if v, err = PublishNext(garbled, snap); err != nil || v != 1 {
		t.Fatalf("publish over garbage: got %d, %v; want 1", v, err)
	}
}

// TestSnapshotEncodeRejectsIncomplete: encoding must validate up front.
func TestSnapshotEncodeRejectsIncomplete(t *testing.T) {
	sys, _, _ := trainedSystem(t, core.Supervised, 71)
	snap, err := Capture(sys, Meta{})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer

	broken := *snap
	broken.Encoder = nil
	if err := broken.Encode(&buf); err == nil {
		t.Fatal("encoded snapshot without encoder")
	}
	broken = *snap
	broken.Shards = 0
	if err := broken.Encode(&buf); err == nil {
		t.Fatal("encoded snapshot with zero shards")
	}
	broken = *snap
	broken.Head = nil
	if err := broken.Encode(&buf); err == nil {
		t.Fatal("encoded snapshot with classes but no head")
	}
	st := *snap.State
	st.LeafRows = st.LeafRows[:1]
	broken = *snap
	broken.State = &st
	if err := broken.Encode(&buf); err == nil {
		t.Fatal("encoded snapshot with inconsistent forest state")
	}
}
