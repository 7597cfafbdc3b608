// Package snapshot defines the versioned model-snapshot format that closes
// the train→publish→serve loop: a training session captures its encoder
// (and head) weights plus the per-device tree state, publishes them
// atomically to a file, and a serving replica reconstructs a bit-identical
// inference system from that file — repeatedly, as training republishes.
//
// # Format (version 1)
//
// All integers are little-endian. Every length field is bounded before any
// allocation, and the whole snapshot is covered by a CRC-32 trailer, so
// truncation and bit flips fail loudly at decode time:
//
//	u32  magic "LSNP"
//	u32  format version (1)
//	u64  snapshot version (monotonically increasing across publishes;
//	     serving replicas swap only when it moves forward)
//	u32  metadata length + JSON Meta
//	u8   backbone, u32 ×5 inDim/hidden/outDim/layers/heads, f64 dropout,
//	     u32 classes (0 = no head), u32 shards (the training partition,
//	     pinned so pooled-embedding reduction order — and therefore every
//	     prediction — is bit-identical at serve time)
//	u32  weights length + nn.SaveParams stream (encoder, then head)
//	u32  N, then per device: u32 nodes, u32 edge count, edges as u32 pairs
//	u32  leaf count, rows, vertices (u32 each), pooling coefficients (f64)
//	u32  X length + tensor.Matrix binary encoding (forest embeddings)
//	u32  CRC-32 (IEEE) of every preceding byte
package snapshot

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"time"

	"lumos/internal/core"
	"lumos/internal/nn"
	"lumos/internal/tensor"
)

const (
	magic         = uint32(0x4c534e50) // "LSNP"
	formatVersion = uint32(1)

	maxMetaLen    = 1 << 20
	maxWeightsLen = 1 << 30
	maxMatrixLen  = 1 << 30
	maxDevices    = 1 << 24
	maxTreeNodes  = 1 << 28
	maxTreeEdges  = 1 << 28
	maxDim        = 1 << 24
)

// Meta describes a snapshot for humans, dashboards, and swap ordering.
type Meta struct {
	// Version orders snapshots of one deployment: publishers increment it
	// (PublishNext) and servers hot-swap only when it moves forward.
	Version uint64 `json:"version"`
	// Task and Backbone echo the training configuration.
	Task     string `json:"task"`
	Backbone string `json:"backbone"`
	// Dataset names the graph the model was trained on.
	Dataset string `json:"dataset,omitempty"`
	// Seed is the training run seed.
	Seed int64 `json:"seed,omitempty"`
	// Round is how many epochs/rounds the published model had trained.
	Round int `json:"round,omitempty"`
	// Metric is the publisher's evaluation metric (MetricName says which).
	Metric     float64 `json:"metric,omitempty"`
	MetricName string  `json:"metric_name,omitempty"`
	// CreatedUnix is the publish time (informational only).
	CreatedUnix int64 `json:"created_unix,omitempty"`
}

// Snapshot is a decoded (or captured) model snapshot: metadata, the model
// architecture, trained modules, and the forest state serving needs.
type Snapshot struct {
	Meta    Meta
	Model   nn.GNNConfig
	Classes int // head width; 0 = no classification head
	Shards  int // training shard partition (fixes reduction order)
	Encoder *nn.GNN
	Head    *nn.Linear // nil when Classes == 0
	State   *core.ForestState
}

// Capture freezes a trained system into a snapshot: weights and forest
// state are deep-copied, so training may continue (and republish later)
// without mutating the capture. meta.Task and meta.Backbone are filled from
// the system.
func Capture(sys *core.System, meta Meta) (*Snapshot, error) {
	if sys == nil || sys.Encoder == nil {
		return nil, fmt.Errorf("snapshot: nil system")
	}
	meta.Task = sys.Cfg.Task.String()
	meta.Backbone = sys.Cfg.Backbone.String()
	enc, err := nn.NewGNN(sys.Encoder.Cfg, rand.New(rand.NewSource(0)))
	if err != nil {
		return nil, fmt.Errorf("snapshot: rebuilding encoder: %w", err)
	}
	nn.Restore(enc, nn.Snapshot(sys.Encoder))
	s := &Snapshot{
		Meta:    meta,
		Model:   sys.Encoder.Cfg,
		Shards:  sys.ShardCount(),
		Encoder: enc,
		State:   sys.ForestState(),
	}
	if sys.Head != nil {
		head := nn.NewLinear("head", sys.Head.In, sys.Head.Out, rand.New(rand.NewSource(0)))
		nn.Restore(head, nn.Snapshot(sys.Head))
		s.Head = head
		s.Classes = head.Out
	}
	return s, nil
}

// System reconstructs an evaluation-only system answering queries
// bit-identically to the training process the snapshot was captured from.
func (s *Snapshot) System() (*core.System, error) {
	return core.NewInferenceSystem(s.State, s.Encoder, s.Head, s.Shards, 0)
}

// model is the joint module the weights stream carries: encoder parameters
// first, then the head's — the same order core.System.Params uses.
type model struct {
	enc  *nn.GNN
	head *nn.Linear
}

func (m model) Params() []*nn.Param {
	ps := m.enc.Params()
	if m.head != nil {
		ps = append(ps, m.head.Params()...)
	}
	return ps
}

// Encode writes the snapshot to w in format version 1.
func (s *Snapshot) Encode(w io.Writer) error {
	if s.Encoder == nil || s.State == nil {
		return fmt.Errorf("snapshot: incomplete snapshot (missing encoder or state)")
	}
	if err := s.State.Validate(); err != nil {
		return fmt.Errorf("snapshot: %w", err)
	}
	if (s.Classes == 0) != (s.Head == nil) {
		return fmt.Errorf("snapshot: Classes=%d with head=%v", s.Classes, s.Head != nil)
	}
	if s.Shards < 1 {
		return fmt.Errorf("snapshot: shard count %d must be positive", s.Shards)
	}
	bw := bufio.NewWriter(w)
	h := crc32.NewIEEE()
	e := &encoder{w: io.MultiWriter(bw, h)}

	e.u32(magic)
	e.u32(formatVersion)
	e.u64(s.Meta.Version)

	metaJSON, err := json.Marshal(s.Meta)
	if err != nil {
		return fmt.Errorf("snapshot: encoding metadata: %w", err)
	}
	e.blob(metaJSON, maxMetaLen, "metadata")

	e.u8(uint8(s.Model.Backbone))
	e.u32(uint32(s.Model.InDim))
	e.u32(uint32(s.Model.Hidden))
	e.u32(uint32(s.Model.OutDim))
	e.u32(uint32(s.Model.Layers))
	e.u32(uint32(s.Model.Heads))
	e.f64(s.Model.Dropout)
	e.u32(uint32(s.Classes))
	e.u32(uint32(s.Shards))

	var weights bytes.Buffer
	if err := nn.SaveParams(&weights, model{s.Encoder, s.Head}); err != nil {
		return fmt.Errorf("snapshot: encoding weights: %w", err)
	}
	e.blob(weights.Bytes(), maxWeightsLen, "weights")

	fs := s.State
	e.u32(uint32(fs.N))
	for v := 0; v < fs.N; v++ {
		e.u32(uint32(fs.TreeNodes[v]))
		e.u32(uint32(len(fs.TreeEdges[v])))
		for _, edge := range fs.TreeEdges[v] {
			e.u32(uint32(edge[0]))
			e.u32(uint32(edge[1]))
		}
	}
	e.u32(uint32(len(fs.LeafRows)))
	for _, r := range fs.LeafRows {
		e.u32(uint32(r))
	}
	for _, v := range fs.LeafVertex {
		e.u32(uint32(v))
	}
	for _, c := range fs.PoolCoef {
		e.f64(c)
	}
	xBlob, err := fs.X.MarshalBinary()
	if err != nil {
		return fmt.Errorf("snapshot: encoding embeddings: %w", err)
	}
	e.blob(xBlob, maxMatrixLen, "embedding matrix")
	if e.err != nil {
		return fmt.Errorf("snapshot: encoding: %w", e.err)
	}
	// The CRC trailer covers every byte written so far; it goes to the
	// stream only, not the hash.
	if err := binary.Write(bw, binary.LittleEndian, h.Sum32()); err != nil {
		return fmt.Errorf("snapshot: writing checksum: %w", err)
	}
	return bw.Flush()
}

// Decode reads one snapshot, verifying structure, bounds, and the CRC
// trailer, and rebuilds the modules ready for System().
func Decode(r io.Reader) (*Snapshot, error) {
	br := bufio.NewReader(r)
	h := crc32.NewIEEE()
	d := &decoder{r: io.TeeReader(br, h)}

	if got := d.u32(); d.err == nil && got != magic {
		return nil, fmt.Errorf("snapshot: bad magic %#x (not a lumos snapshot)", got)
	}
	if v := d.u32(); d.err == nil && v != formatVersion {
		return nil, fmt.Errorf("snapshot: unsupported format version %d (this build reads %d)", v, formatVersion)
	}
	s := &Snapshot{}
	version := d.u64()

	metaJSON := d.blob(maxMetaLen, "metadata")
	if d.err == nil {
		if err := json.Unmarshal(metaJSON, &s.Meta); err != nil {
			return nil, fmt.Errorf("snapshot: decoding metadata: %w", err)
		}
	}
	s.Meta.Version = version // the binary header is authoritative, not the JSON

	backbone := d.u8()
	s.Model = nn.GNNConfig{
		InDim:  d.dim("input dim"),
		Hidden: d.dim("hidden dim"),
		OutDim: d.dim("output dim"),
		Layers: d.dim("layer count"),
		Heads:  d.dim("head count"),
	}
	s.Model.Dropout = d.f64()
	s.Classes = d.dim("class count")
	s.Shards = d.dim("shard count")

	weights := d.blob(maxWeightsLen, "weights")

	fs := &core.ForestState{N: d.dim("device count")}
	if d.err == nil && fs.N > maxDevices {
		return nil, fmt.Errorf("snapshot: device count %d exceeds bound %d (corrupt length field?)", fs.N, maxDevices)
	}
	// Every slice sized by a length field grows as its elements actually
	// arrive (growCap), so a corrupt count runs out of input instead of
	// driving an up-front allocation.
	totalNodes, totalEdges := 0, 0
	if d.err == nil {
		fs.TreeNodes = make([]int, 0, growCap(fs.N))
		fs.TreeEdges = make([][][2]int, 0, growCap(fs.N))
	}
	for v := 0; d.err == nil && v < fs.N; v++ {
		nodes := d.dim("tree node count")
		totalNodes += nodes
		if totalNodes > maxTreeNodes {
			return nil, fmt.Errorf("snapshot: forest claims over %d nodes (corrupt length field?)", maxTreeNodes)
		}
		ne := d.dim("tree edge count")
		totalEdges += ne
		if totalEdges > maxTreeEdges {
			return nil, fmt.Errorf("snapshot: forest claims over %d edges (corrupt length field?)", maxTreeEdges)
		}
		edges := make([][2]int, 0, growCap(ne))
		for i := 0; d.err == nil && i < ne; i++ {
			edges = append(edges, [2]int{d.dim("edge endpoint"), d.dim("edge endpoint")})
		}
		fs.TreeNodes = append(fs.TreeNodes, nodes)
		fs.TreeEdges = append(fs.TreeEdges, edges)
	}
	nLeaf := d.dim("leaf count")
	if d.err == nil && nLeaf > totalNodes {
		return nil, fmt.Errorf("snapshot: %d leaves for %d forest nodes (corrupt length field?)", nLeaf, totalNodes)
	}
	if d.err == nil {
		fs.LeafRows = make([]int, 0, growCap(nLeaf))
		for i := 0; d.err == nil && i < nLeaf; i++ {
			fs.LeafRows = append(fs.LeafRows, d.dim("leaf row"))
		}
		fs.LeafVertex = make([]int, 0, growCap(nLeaf))
		for i := 0; d.err == nil && i < nLeaf; i++ {
			fs.LeafVertex = append(fs.LeafVertex, d.dim("leaf vertex"))
		}
		fs.PoolCoef = make([]float64, 0, growCap(nLeaf))
		for i := 0; d.err == nil && i < nLeaf; i++ {
			fs.PoolCoef = append(fs.PoolCoef, d.f64())
		}
	}
	xBlob := d.blob(maxMatrixLen, "embedding matrix")
	if d.err != nil {
		return nil, fmt.Errorf("snapshot: decoding: %w", d.err)
	}

	// Checksum: grab the running CRC before consuming the trailer.
	sum := h.Sum32()
	var trailer uint32
	if err := binary.Read(br, binary.LittleEndian, &trailer); err != nil {
		return nil, fmt.Errorf("snapshot: reading checksum: %w", err)
	}
	if trailer != sum {
		return nil, fmt.Errorf("snapshot: checksum mismatch (stored %#x, computed %#x): snapshot is corrupt", trailer, sum)
	}
	if _, err := br.ReadByte(); err != io.EOF {
		if err == nil {
			return nil, fmt.Errorf("snapshot: trailing data after checksum")
		}
		return nil, fmt.Errorf("snapshot: reading trailer: %w", err)
	}

	fs.X = &tensor.Matrix{}
	if err := fs.X.UnmarshalBinary(xBlob); err != nil {
		return nil, fmt.Errorf("snapshot: decoding embeddings: %w", err)
	}
	s.State = fs
	if err := fs.Validate(); err != nil {
		return nil, fmt.Errorf("snapshot: %w", err)
	}

	if backbone != uint8(nn.GCN) && backbone != uint8(nn.GAT) {
		return nil, fmt.Errorf("snapshot: unknown backbone %d", backbone)
	}
	s.Model.Backbone = nn.Backbone(backbone)
	if s.Classes == 1 {
		return nil, fmt.Errorf("snapshot: classification head with %d classes", s.Classes)
	}
	// Each dim is bounded, but their products are not, and the model
	// allocates every parameter as it is built: size the architecture
	// against the weights the snapshot actually carries first.
	arch := s.Model
	if err := arch.Validate(); err != nil {
		return nil, fmt.Errorf("snapshot: rebuilding encoder: %w", err)
	}
	if need := nn.MinCheckpointBytes(arch, s.Classes); need > uint64(len(weights)) {
		return nil, fmt.Errorf("snapshot: architecture needs at least %d weight bytes, snapshot carries %d", need, len(weights))
	}
	enc, err := nn.NewGNN(s.Model, rand.New(rand.NewSource(0)))
	if err != nil {
		return nil, fmt.Errorf("snapshot: rebuilding encoder: %w", err)
	}
	s.Encoder = enc
	if s.Classes > 0 {
		s.Head = nn.NewLinear("head", s.Model.OutDim, s.Classes, rand.New(rand.NewSource(0)))
	}
	if err := nn.LoadParams(bytes.NewReader(weights), model{s.Encoder, s.Head}); err != nil {
		return nil, fmt.Errorf("snapshot: restoring weights: %w", err)
	}
	if s.Shards < 1 {
		return nil, fmt.Errorf("snapshot: shard count %d must be positive", s.Shards)
	}
	return s, nil
}

// Read loads and decodes the snapshot file at path.
func Read(path string) (*Snapshot, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	s, err := Decode(f)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return s, nil
}

// PeekVersion reads just the snapshot version from the file header, without
// decoding or checksumming the body — the cheap staleness check watchers
// use before a full Read.
func PeekVersion(path string) (uint64, error) {
	f, err := os.Open(path)
	if err != nil {
		return 0, err
	}
	defer f.Close()
	var hdr struct {
		Magic, Format uint32
		Version       uint64
	}
	if err := binary.Read(f, binary.LittleEndian, &hdr); err != nil {
		return 0, fmt.Errorf("%s: reading snapshot header: %w", path, err)
	}
	if hdr.Magic != magic {
		return 0, fmt.Errorf("%s: bad magic %#x (not a lumos snapshot)", path, hdr.Magic)
	}
	if hdr.Format != formatVersion {
		return 0, fmt.Errorf("%s: unsupported format version %d", path, hdr.Format)
	}
	return hdr.Version, nil
}

// PublishObserver, when set, is called after every successful Write with
// the published path, version, encoded size, and the time the encode+
// fsync+rename took. CLIs hook it up once at startup to count and trace
// snapshot publishes; it must be set before any concurrent Write and be
// safe for concurrent calls. Nil (the default) costs nothing.
var PublishObserver func(path string, version uint64, bytes int64, elapsed time.Duration)

// Write publishes the snapshot to path atomically: encode to a temporary
// file in the same directory, fsync, check the close error (a full disk
// must never ship a truncated snapshot), then rename over path. A watcher
// polling path sees either the old snapshot or the complete new one.
func Write(path string, s *Snapshot) (err error) {
	start := time.Now()
	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, ".snapshot-*")
	if err != nil {
		return err
	}
	defer func() {
		if err != nil {
			os.Remove(tmp.Name())
		}
	}()
	if err = s.Encode(tmp); err != nil {
		tmp.Close()
		return err
	}
	var size int64
	if st, serr := tmp.Stat(); serr == nil {
		size = st.Size()
	}
	if err = tmp.Sync(); err != nil {
		tmp.Close()
		return err
	}
	if err = tmp.Close(); err != nil {
		return err
	}
	if err = os.Rename(tmp.Name(), path); err != nil {
		return err
	}
	if PublishObserver != nil {
		PublishObserver(path, s.Meta.Version, size, time.Since(start))
	}
	return nil
}

// PublishNext writes the snapshot to path with the next version: one past
// the version currently published there (1 when the path does not exist or
// holds something unreadable). It returns the published version — this is
// what keeps versions monotonically increasing across a train→publish loop,
// which serving replicas rely on for swap ordering.
func PublishNext(path string, s *Snapshot) (uint64, error) {
	prev, err := PeekVersion(path)
	if err != nil {
		prev = 0
	}
	next := prev + 1
	if next == 0 { // uint64 wrap: malformed header claimed MaxUint64
		return 0, fmt.Errorf("snapshot: version space exhausted at %s", path)
	}
	s.Meta.Version = next
	if err := Write(path, s); err != nil {
		return 0, err
	}
	return next, nil
}

// encoder is a sticky-error little-endian writer.
type encoder struct {
	w   io.Writer
	err error
}

func (e *encoder) u8(v uint8)   { e.write(v) }
func (e *encoder) u32(v uint32) { e.write(v) }
func (e *encoder) u64(v uint64) { e.write(v) }
func (e *encoder) f64(v float64) {
	e.write(math.Float64bits(v))
}

func (e *encoder) write(v interface{}) {
	if e.err != nil {
		return
	}
	e.err = binary.Write(e.w, binary.LittleEndian, v)
}

func (e *encoder) blob(b []byte, max int, what string) {
	if e.err != nil {
		return
	}
	if len(b) > max {
		e.err = fmt.Errorf("%s is %d bytes, bound is %d", what, len(b), max)
		return
	}
	e.u32(uint32(len(b)))
	if e.err == nil {
		_, e.err = e.w.Write(b)
	}
}

// decoder is a sticky-error little-endian reader with bounds enforcement;
// every read flows through the CRC tee.
type decoder struct {
	r   io.Reader
	err error
}

func (d *decoder) u8() uint8 {
	var v uint8
	d.read(&v)
	return v
}

func (d *decoder) u32() uint32 {
	var v uint32
	d.read(&v)
	return v
}

func (d *decoder) u64() uint64 {
	var v uint64
	d.read(&v)
	return v
}

func (d *decoder) f64() float64 {
	var v uint64
	d.read(&v)
	return math.Float64frombits(v)
}

// dim reads a u32 meant to be a small structural quantity (a dimension,
// count, or index) and bounds it.
func (d *decoder) dim(what string) int {
	v := d.u32()
	if d.err == nil && v > maxDim {
		d.err = fmt.Errorf("%s %d exceeds bound %d (corrupt length field?)", what, v, maxDim)
	}
	return int(v)
}

func (d *decoder) read(v interface{}) {
	if d.err != nil {
		return
	}
	d.err = binary.Read(d.r, binary.LittleEndian, v)
}

// growCap is the initial capacity for a slice of n decoded elements: n
// itself up to a small bound, after which append grows the slice only as
// the elements are actually read.
func growCap(n int) int { return min(n, 1024) }

// blob reads a length-prefixed byte section, growing as data actually
// arrives so a corrupt length never drives an up-front allocation.
func (d *decoder) blob(max int, what string) []byte {
	if d.err != nil {
		return nil
	}
	n := d.u32()
	if d.err != nil {
		return nil
	}
	if int(n) > max {
		d.err = fmt.Errorf("%s claims %d bytes, bound is %d (corrupt length field?)", what, n, max)
		return nil
	}
	var buf bytes.Buffer
	if m, err := io.CopyN(&buf, d.r, int64(n)); err != nil {
		d.err = fmt.Errorf("reading %s: got %d of %d bytes: %w", what, m, n, err)
		return nil
	}
	return buf.Bytes()
}
