package nn

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"math/bits"
	"sort"
	"strings"

	"lumos/internal/tensor"
)

// Checkpointing: named parameters are written as a simple length-prefixed
// stream so trained models can be saved and restored without reflection or
// third-party formats. The reader treats every length field as untrusted:
// counts and sizes are bounded before any allocation, payloads are read
// incrementally (a truncated stream fails after reading what actually
// exists, never after a multi-GB up-front allocation), duplicate parameter
// names are rejected, and parameters present in the stream but absent from
// the model surface in the error — name or shape drift between writer and
// reader is always loud.

const checkpointMagic = uint32(0x4c4d4f53) // "LMOS"

// Decode bounds. They are far above anything this codebase writes (the
// largest real checkpoint is a few thousand small matrices) but low enough
// that a corrupt length field cannot drive an excessive allocation.
const (
	// MaxCheckpointParams bounds the parameter count field.
	MaxCheckpointParams = 1 << 16
	// MaxCheckpointNameLen bounds a single parameter-name length.
	MaxCheckpointNameLen = 1 << 10
	// MaxCheckpointBlobLen bounds a single parameter payload (a 16k×2k
	// float64 matrix still fits; real layers are orders of magnitude
	// smaller).
	MaxCheckpointBlobLen = 1 << 28
)

// minParamEntryBytes is the smallest stream entry one parameter can take:
// its name and payload length fields, a one-byte name, and the matrix
// header (magic, rows, cols) ahead of the float64 entries.
const minParamEntryBytes = 4 + 1 + 4 + 12

// MinCheckpointBytes returns the smallest SaveParams stream that can hold
// the parameters of NewGNN(cfg) followed by those of a
// NewLinear(cfg.OutDim, classes) head (no head when classes is 0). It reads
// the architecture alone, so a decoder can size an untrusted architecture
// against the bytes it actually holds before building anything. The
// arithmetic saturates at math.MaxUint64 rather than wrapping, and an
// architecture with more parameters than a checkpoint may carry
// (MaxCheckpointParams) also needs math.MaxUint64. cfg must have passed
// Validate.
func MinCheckpointBytes(cfg GNNConfig, classes int) uint64 {
	sz := ckptSize{bytes: 8} // magic and parameter count
	heads := uint64(cfg.Heads)
	in := uint64(cfg.InDim)
	// The bound check ends the loop early: a corrupt layer count must not
	// cost a pass per claimed layer.
	for i := 0; i < cfg.Layers && sz.matrices <= MaxCheckpointParams; i++ {
		last := i == cfg.Layers-1
		out := uint64(cfg.Hidden)
		if last {
			out = uint64(cfg.OutDim)
		}
		switch cfg.Backbone {
		case GAT:
			// Per head a projection and two attention vectors, then one
			// bias over the concatenated (hidden) or averaged (last) heads.
			sz.add(heads, in, out)
			sz.add(satMul(2, heads), out, 1)
			if !last {
				out = satMul(out, heads)
			}
			sz.add(1, 1, out)
		default:
			sz.add(1, in, out)
			sz.add(1, 1, out)
		}
		in = out
	}
	if classes > 0 {
		sz.add(1, uint64(cfg.OutDim), uint64(classes))
		sz.add(1, 1, uint64(classes))
	}
	if sz.matrices > MaxCheckpointParams {
		return math.MaxUint64
	}
	return sz.bytes
}

// ckptSize tallies a checkpoint stream's parameter count and minimum size.
type ckptSize struct{ matrices, bytes uint64 }

// add counts n parameters of rows×cols entries each.
func (s *ckptSize) add(n, rows, cols uint64) {
	s.matrices = satAdd(s.matrices, n)
	entry := satAdd(minParamEntryBytes, satMul(8, satMul(rows, cols)))
	s.bytes = satAdd(s.bytes, satMul(n, entry))
}

// satMul and satAdd are a·b and a+b saturated at math.MaxUint64.
func satMul(a, b uint64) uint64 {
	hi, lo := bits.Mul64(a, b)
	if hi != 0 {
		return math.MaxUint64
	}
	return lo
}

func satAdd(a, b uint64) uint64 {
	sum, carry := bits.Add64(a, b, 0)
	if carry != 0 {
		return math.MaxUint64
	}
	return sum
}

// SaveParams writes all parameters of m to w. The writer enforces the same
// bounds the reader checks, so a checkpoint that saves successfully always
// loads (duplicate parameter names are a writer bug and rejected here too).
func SaveParams(w io.Writer, m Module) error {
	bw := bufio.NewWriter(w)
	params := m.Params()
	if len(params) > MaxCheckpointParams {
		return fmt.Errorf("nn: %d parameters exceed the checkpoint bound %d", len(params), MaxCheckpointParams)
	}
	if err := binary.Write(bw, binary.LittleEndian, checkpointMagic); err != nil {
		return err
	}
	if err := binary.Write(bw, binary.LittleEndian, uint32(len(params))); err != nil {
		return err
	}
	seen := make(map[string]bool, len(params))
	for _, p := range params {
		if seen[p.Name] {
			return fmt.Errorf("nn: duplicate parameter name %q", p.Name)
		}
		seen[p.Name] = true
		name := []byte(p.Name)
		if len(name) == 0 || len(name) > MaxCheckpointNameLen {
			return fmt.Errorf("nn: parameter name %q length %d outside [1,%d]", p.Name, len(name), MaxCheckpointNameLen)
		}
		if err := binary.Write(bw, binary.LittleEndian, uint32(len(name))); err != nil {
			return err
		}
		if _, err := bw.Write(name); err != nil {
			return err
		}
		blob, err := p.V.Data.MarshalBinary()
		if err != nil {
			return err
		}
		if len(blob) > MaxCheckpointBlobLen {
			return fmt.Errorf("nn: parameter %q payload %d bytes exceeds the checkpoint bound %d", p.Name, len(blob), MaxCheckpointBlobLen)
		}
		if err := binary.Write(bw, binary.LittleEndian, uint32(len(blob))); err != nil {
			return err
		}
		if _, err := bw.Write(blob); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// LoadParams restores parameters into m, matching by name. The stream and
// the model must carry exactly the same parameter set: a parameter of m
// missing from the stream, a stream parameter absent from m, a duplicate
// name, a shape mismatch, or trailing bytes after the last parameter are
// all decode errors.
func LoadParams(r io.Reader, m Module) error {
	br := bufio.NewReader(r)
	var magic, count uint32
	if err := binary.Read(br, binary.LittleEndian, &magic); err != nil {
		return fmt.Errorf("nn: reading checkpoint header: %w", err)
	}
	if magic != checkpointMagic {
		return fmt.Errorf("nn: bad checkpoint magic %#x", magic)
	}
	if err := binary.Read(br, binary.LittleEndian, &count); err != nil {
		return fmt.Errorf("nn: reading checkpoint parameter count: %w", err)
	}
	if count > MaxCheckpointParams {
		return fmt.Errorf("nn: checkpoint claims %d parameters, bound is %d (corrupt length field?)", count, MaxCheckpointParams)
	}
	loaded := make(map[string]*tensor.Matrix, count)
	order := make([]string, 0, count)
	for i := uint32(0); i < count; i++ {
		var nameLen uint32
		if err := binary.Read(br, binary.LittleEndian, &nameLen); err != nil {
			return fmt.Errorf("nn: reading name length of parameter %d/%d: %w", i+1, count, err)
		}
		if nameLen == 0 || nameLen > MaxCheckpointNameLen {
			return fmt.Errorf("nn: parameter %d/%d name length %d outside [1,%d] (corrupt length field?)", i+1, count, nameLen, MaxCheckpointNameLen)
		}
		name := make([]byte, nameLen)
		if _, err := io.ReadFull(br, name); err != nil {
			return fmt.Errorf("nn: reading name of parameter %d/%d: %w", i+1, count, err)
		}
		var blobLen uint32
		if err := binary.Read(br, binary.LittleEndian, &blobLen); err != nil {
			return fmt.Errorf("nn: reading payload length of parameter %q: %w", name, err)
		}
		if blobLen > MaxCheckpointBlobLen {
			return fmt.Errorf("nn: parameter %q claims a %d-byte payload, bound is %d (corrupt length field?)", name, blobLen, MaxCheckpointBlobLen)
		}
		blob, err := readExactly(br, int64(blobLen))
		if err != nil {
			return fmt.Errorf("nn: reading payload of parameter %q: %w", name, err)
		}
		var mat tensor.Matrix
		if err := mat.UnmarshalBinary(blob); err != nil {
			return fmt.Errorf("nn: parameter %q: %w", name, err)
		}
		if _, dup := loaded[string(name)]; dup {
			return fmt.Errorf("nn: checkpoint has duplicate parameter %q", name)
		}
		loaded[string(name)] = &mat
		order = append(order, string(name))
	}
	if _, err := br.ReadByte(); err != io.EOF {
		if err == nil {
			return fmt.Errorf("nn: trailing data after %d checkpoint parameters", count)
		}
		return fmt.Errorf("nn: reading checkpoint trailer: %w", err)
	}
	used := make(map[string]bool, len(loaded))
	for _, p := range m.Params() {
		mat, ok := loaded[p.Name]
		if !ok {
			return fmt.Errorf("nn: checkpoint missing parameter %q", p.Name)
		}
		if mat.Rows() != p.V.Data.Rows() || mat.Cols() != p.V.Data.Cols() {
			return fmt.Errorf("nn: parameter %q shape %dx%d, checkpoint has %dx%d",
				p.Name, p.V.Data.Rows(), p.V.Data.Cols(), mat.Rows(), mat.Cols())
		}
		used[p.Name] = true
	}
	if len(used) < len(loaded) {
		extras := make([]string, 0, len(loaded)-len(used))
		for _, name := range order {
			if !used[name] {
				extras = append(extras, fmt.Sprintf("%q", name))
			}
		}
		sort.Strings(extras)
		return fmt.Errorf("nn: checkpoint has %d parameter(s) the model does not: %s",
			len(extras), strings.Join(extras, ", "))
	}
	// All checks passed; only now mutate the model, so a failed load never
	// leaves it half-restored.
	for _, p := range m.Params() {
		p.V.Data.CopyFrom(loaded[p.Name])
	}
	return nil
}

// readExactly reads exactly n bytes, growing the buffer as data actually
// arrives: a corrupt length field pointing past the end of the stream fails
// after the real bytes run out instead of allocating n up front.
func readExactly(r io.Reader, n int64) ([]byte, error) {
	var buf bytes.Buffer
	if m, err := io.CopyN(&buf, r, n); err != nil {
		return nil, fmt.Errorf("got %d of %d bytes: %w", m, n, err)
	}
	return buf.Bytes(), nil
}
