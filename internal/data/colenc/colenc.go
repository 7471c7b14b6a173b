// Package colenc is the columnar at-rest codec for materialized-view
// partitions.
//
// A partition ([]data.Row) is encoded into one self-describing byte block:
// values are laid out column-major as typed vectors — zigzag varint deltas
// for ints and dates, raw IEEE-754 bits for floats, a first-occurrence
// dictionary plus varint indexes for strings, packed bits for bools — with
// a per-column null bitmap. Columns whose values do not all share one kind
// fall back to a tagged per-value encoding, so the codec accepts any rows
// the engine can produce.
//
// The encoding is a pure function of the row values: equal partitions
// encode to identical bytes, and Decode(Encode(p)) re-encodes to the same
// bytes. That determinism is what lets the storage layer fold its
// integrity checksum over the encoded payload and still detect any
// reordering, truncation, or bit damage. Decode is defensive: arbitrary
// (corrupted) input returns an error, never a panic or out-of-range read.
//
// Decoded rows are fresh allocations carved from one contiguous value
// arena per partition; string values alias the decoded dictionary, so a
// column with heavy duplication decodes to shared string headers. Callers
// treat decoded rows as immutable, exactly like every other row in the
// engine.
package colenc

import (
	"encoding/binary"
	"fmt"
	"math"

	"cloudviews/internal/data"
)

// magic tags a version-1 encoded partition block.
const magic = 0xC1

// Column tags: 0 means every value in the column is NULL (or the partition
// is empty); 1-5 are the data.Kind values; tagMixed marks a column whose
// non-null values span more than one kind and are stored with per-value
// kind bytes.
const tagMixed = 6

// Encode encodes one partition into a columnar byte block. All rows must
// have the same arity (the engine never produces ragged partitions).
func Encode(rows []data.Row) ([]byte, error) {
	cols := 0
	if len(rows) > 0 {
		cols = len(rows[0])
	}
	for i, r := range rows {
		if len(r) != cols {
			return nil, fmt.Errorf("colenc: ragged partition: row %d has %d columns, row 0 has %d", i, len(r), cols)
		}
	}
	buf := make([]byte, 0, 16+len(rows)*cols*2)
	buf = append(buf, magic)
	buf = binary.AppendUvarint(buf, uint64(len(rows)))
	buf = binary.AppendUvarint(buf, uint64(cols))
	for c := 0; c < cols; c++ {
		buf = appendColumn(buf, rows, c)
	}
	return buf, nil
}

// columnTag scans column c and returns its encoding tag.
func columnTag(rows []data.Row, c int) byte {
	tag := byte(0)
	for _, r := range rows {
		k := r[c].K
		if k == data.KindNull {
			continue
		}
		if tag == 0 {
			tag = byte(k)
		} else if tag != byte(k) {
			return tagMixed
		}
	}
	return tag
}

func appendColumn(buf []byte, rows []data.Row, c int) []byte {
	tag := columnTag(rows, c)
	buf = append(buf, tag)
	if tag == 0 || len(rows) == 0 {
		return buf
	}
	// Null bitmap: bit i set means row i holds a value.
	bitmap := make([]byte, (len(rows)+7)/8)
	n := 0 // non-null count
	for i, r := range rows {
		if r[c].K != data.KindNull {
			bitmap[i>>3] |= 1 << (i & 7)
			n++
		}
	}
	buf = append(buf, bitmap...)
	switch data.Kind(tag) {
	case data.KindInt, data.KindDate:
		prev := int64(0)
		for _, r := range rows {
			if v := r[c]; v.K != data.KindNull {
				buf = binary.AppendUvarint(buf, zigzag(v.I-prev))
				prev = v.I
			}
		}
	case data.KindFloat:
		for _, r := range rows {
			if v := r[c]; v.K != data.KindNull {
				buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(v.F))
			}
		}
	case data.KindBool:
		packed := make([]byte, (n+7)/8)
		j := 0
		for _, r := range rows {
			if v := r[c]; v.K != data.KindNull {
				if v.I != 0 {
					packed[j>>3] |= 1 << (j & 7)
				}
				j++
			}
		}
		buf = append(buf, packed...)
	case data.KindString:
		buf = appendStringColumn(buf, rows, c)
	default: // tagMixed
		for _, r := range rows {
			v := r[c]
			if v.K == data.KindNull {
				continue
			}
			buf = append(buf, byte(v.K))
			switch v.K {
			case data.KindFloat:
				buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(v.F))
			case data.KindString:
				buf = binary.AppendUvarint(buf, uint64(len(v.S)))
				buf = append(buf, v.S...)
			default: // int, date, bool: absolute zigzag varint
				buf = binary.AppendUvarint(buf, zigzag(v.I))
			}
		}
	}
	return buf
}

// appendStringColumn dictionary-encodes the non-null strings of column c:
// distinct values in first-occurrence order, then one varint index per
// value. Duplicate-heavy columns (the common case for dimension attributes)
// collapse to near one varint per row.
func appendStringColumn(buf []byte, rows []data.Row, c int) []byte {
	idx := map[string]uint64{}
	var dict []string
	for _, r := range rows {
		if v := r[c]; v.K != data.KindNull {
			if _, ok := idx[v.S]; !ok {
				idx[v.S] = uint64(len(dict))
				dict = append(dict, v.S)
			}
		}
	}
	buf = binary.AppendUvarint(buf, uint64(len(dict)))
	for _, s := range dict {
		buf = binary.AppendUvarint(buf, uint64(len(s)))
		buf = append(buf, s...)
	}
	for _, r := range rows {
		if v := r[c]; v.K != data.KindNull {
			buf = binary.AppendUvarint(buf, idx[v.S])
		}
	}
	return buf
}

func zigzag(v int64) uint64   { return uint64(v<<1) ^ uint64(v>>63) }
func unzigzag(u uint64) int64 { return int64(u>>1) ^ -int64(u&1) }

// decoder walks an encoded block with bounds checking.
type decoder struct {
	buf []byte
	pos int
}

func (d *decoder) err(format string, args ...any) error {
	return fmt.Errorf("colenc: corrupt block at offset %d: %s", d.pos, fmt.Sprintf(format, args...))
}

func (d *decoder) byte() (byte, error) {
	if d.pos >= len(d.buf) {
		return 0, d.err("truncated")
	}
	b := d.buf[d.pos]
	d.pos++
	return b, nil
}

func (d *decoder) bytes(n int) ([]byte, error) {
	if n < 0 || d.pos+n > len(d.buf) {
		return nil, d.err("truncated (%d bytes wanted)", n)
	}
	b := d.buf[d.pos : d.pos+n]
	d.pos += n
	return b, nil
}

func (d *decoder) uvarint() (uint64, error) {
	v, n := binary.Uvarint(d.buf[d.pos:])
	if n <= 0 {
		return 0, d.err("bad varint")
	}
	d.pos += n
	return v, nil
}

// Shape caps: a corrupted header must not trigger an unbounded allocation
// before its truncation is noticed. The caps cannot be derived from the
// payload size — an all-null column legitimately encodes any row count
// into one tag byte — so they are absolute, far above any view this
// engine materializes.
const (
	maxRows   = 1 << 24
	maxCols   = 1 << 16
	maxValues = 1 << 24
)

// plausibleCount bounds counts whose items each consume at least one
// payload byte (dictionary entries).
func (d *decoder) plausibleCount(v uint64) bool {
	return v <= uint64(len(d.buf)-d.pos)
}

// Block is a partition block produced by Encode whose header Open has
// read: Rows × Cols Values size the storage Into fills.
type Block struct {
	Rows, Cols int
	d          decoder // positioned just past the header
}

// Open reads the header of a partition block produced by Encode.
func Open(payload []byte) (Block, error) {
	b := Block{d: decoder{buf: payload}}
	d := &b.d
	m, err := d.byte()
	if err != nil {
		return Block{}, err
	}
	if m != magic {
		return Block{}, d.err("bad magic 0x%02x", m)
	}
	nrows64, err := d.uvarint()
	if err != nil {
		return Block{}, err
	}
	ncols64, err := d.uvarint()
	if err != nil {
		return Block{}, err
	}
	if nrows64 > maxRows || ncols64 > maxCols || nrows64*ncols64 > maxValues {
		return Block{}, d.err("implausible shape %dx%d", nrows64, ncols64)
	}
	b.Rows, b.Cols = int(nrows64), int(ncols64)
	return b, nil
}

// Decode decodes one partition block produced by Encode. Rows are carved
// from a contiguous value arena; string values alias the block's decoded
// dictionary.
func Decode(payload []byte) ([]data.Row, error) {
	b, err := Open(payload)
	if err != nil {
		return nil, err
	}
	rows := make([]data.Row, b.Rows)
	if err := b.Into(make([]data.Value, b.Rows*b.Cols), rows); err != nil {
		return nil, err
	}
	return rows, nil
}

// Into decodes the block into storage the caller sized from its shape:
// rows holds exactly Rows rows and values exactly Rows × Cols Values, from
// which the rows are carved.
func (b Block) Into(values []data.Value, rows []data.Row) error {
	d, nrows, ncols := &b.d, b.Rows, b.Cols
	if len(rows) != nrows || len(values) != nrows*ncols {
		return fmt.Errorf("colenc: a %dx%d block decoded into %d rows of %d values", nrows, ncols, len(rows), len(values))
	}
	for i := range rows {
		rows[i] = data.Row(values[i*ncols : (i+1)*ncols : (i+1)*ncols])
	}
	for c := 0; c < ncols; c++ {
		if err := d.column(rows, c, nrows); err != nil {
			return err
		}
	}
	if d.pos != len(d.buf) {
		return d.err("%d trailing bytes", len(d.buf)-d.pos)
	}
	return nil
}

func (d *decoder) column(rows []data.Row, c, nrows int) error {
	tag, err := d.byte()
	if err != nil {
		return err
	}
	if tag == 0 || nrows == 0 {
		if tag != 0 && tag > tagMixed {
			return d.err("bad column tag %d", tag)
		}
		return nil // arena zero value is NULL
	}
	if tag > tagMixed {
		return d.err("bad column tag %d", tag)
	}
	bitmap, err := d.bytes((nrows + 7) / 8)
	if err != nil {
		return err
	}
	present := func(i int) bool { return bitmap[i>>3]&(1<<(i&7)) != 0 }
	switch data.Kind(tag) {
	case data.KindInt, data.KindDate:
		prev := int64(0)
		for i := 0; i < nrows; i++ {
			if !present(i) {
				continue
			}
			u, err := d.uvarint()
			if err != nil {
				return err
			}
			prev += unzigzag(u)
			rows[i][c] = data.Value{K: data.Kind(tag), I: prev}
		}
	case data.KindFloat:
		for i := 0; i < nrows; i++ {
			if !present(i) {
				continue
			}
			b, err := d.bytes(8)
			if err != nil {
				return err
			}
			rows[i][c] = data.Value{K: data.KindFloat, F: math.Float64frombits(binary.LittleEndian.Uint64(b))}
		}
	case data.KindBool:
		n := 0
		for i := 0; i < nrows; i++ {
			if present(i) {
				n++
			}
		}
		packed, err := d.bytes((n + 7) / 8)
		if err != nil {
			return err
		}
		j := 0
		for i := 0; i < nrows; i++ {
			if !present(i) {
				continue
			}
			v := int64(0)
			if packed[j>>3]&(1<<(j&7)) != 0 {
				v = 1
			}
			rows[i][c] = data.Value{K: data.KindBool, I: v}
			j++
		}
	case data.KindString:
		dictLen, err := d.uvarint()
		if err != nil {
			return err
		}
		if !d.plausibleCount(dictLen) {
			return d.err("implausible dictionary size %d", dictLen)
		}
		dict := make([]string, dictLen)
		for i := range dict {
			sl, err := d.uvarint()
			if err != nil {
				return err
			}
			b, err := d.bytes(int(sl))
			if err != nil {
				return err
			}
			dict[i] = string(b)
		}
		for i := 0; i < nrows; i++ {
			if !present(i) {
				continue
			}
			idx, err := d.uvarint()
			if err != nil {
				return err
			}
			if idx >= dictLen {
				return d.err("dictionary index %d of %d", idx, dictLen)
			}
			rows[i][c] = data.Value{K: data.KindString, S: dict[idx]}
		}
	default: // tagMixed
		for i := 0; i < nrows; i++ {
			if !present(i) {
				continue
			}
			kb, err := d.byte()
			if err != nil {
				return err
			}
			switch data.Kind(kb) {
			case data.KindInt, data.KindDate, data.KindBool:
				u, err := d.uvarint()
				if err != nil {
					return err
				}
				rows[i][c] = data.Value{K: data.Kind(kb), I: unzigzag(u)}
			case data.KindFloat:
				b, err := d.bytes(8)
				if err != nil {
					return err
				}
				rows[i][c] = data.Value{K: data.KindFloat, F: math.Float64frombits(binary.LittleEndian.Uint64(b))}
			case data.KindString:
				sl, err := d.uvarint()
				if err != nil {
					return err
				}
				b, err := d.bytes(int(sl))
				if err != nil {
					return err
				}
				rows[i][c] = data.Value{K: data.KindString, S: string(b)}
			default:
				return d.err("bad value kind %d in mixed column", kb)
			}
		}
	}
	return nil
}
