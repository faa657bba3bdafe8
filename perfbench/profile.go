package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
)

// labelCPU sums a runtime/pprof CPU profile's sampled CPU nanoseconds
// by the value of the "layer" label. It decodes only the fields it
// needs of the profile.proto encoding: sample_type (1), sample (2)
// and string_table (6); a sample's value (2) and label (3); a label's
// key (1) and str (2).
func labelCPU(gz []byte) (byLayer map[string]int64, total int64, err error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, 0, err
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, 0, err
	}
	type sample struct {
		values []int64
		labels [][2]int64 // key, str string-table indices
	}
	var (
		samples []sample
		strs    []string
		units   []int64 // sample_type unit string indices
	)
	err = eachField(raw, func(num int, wt int, v uint64, b []byte) error {
		switch {
		case num == 1 && wt == 2:
			return eachField(b, func(n, w int, v uint64, _ []byte) error {
				if n == 2 && w == 0 {
					units = append(units, int64(v))
				}
				return nil
			})
		case num == 2 && wt == 2:
			var s sample
			err := eachField(b, func(n, w int, v uint64, sb []byte) error {
				switch {
				case n == 2 && w == 0:
					s.values = append(s.values, int64(v))
				case n == 2 && w == 2:
					return eachVarint(sb, func(v uint64) { s.values = append(s.values, int64(v)) })
				case n == 3 && w == 2:
					var kv [2]int64
					err := eachField(sb, func(ln, lw int, lv uint64, _ []byte) error {
						if lw == 0 && (ln == 1 || ln == 2) {
							kv[ln-1] = int64(lv)
						}
						return nil
					})
					s.labels = append(s.labels, kv)
					return err
				}
				return nil
			})
			samples = append(samples, s)
			return err
		case num == 6 && wt == 2:
			strs = append(strs, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, 0, err
	}
	str := func(i int64) string {
		if i < 0 || int(i) >= len(strs) {
			return ""
		}
		return strs[i]
	}
	col := -1
	for i, u := range units {
		if str(u) == "nanoseconds" {
			col = i
		}
	}
	if col < 0 {
		return nil, 0, errors.New("profile has no nanoseconds sample type")
	}
	byLayer = map[string]int64{}
	for _, s := range samples {
		if col >= len(s.values) {
			return nil, 0, fmt.Errorf("sample has %d values, want more than %d", len(s.values), col)
		}
		layer := ""
		for _, kv := range s.labels {
			if str(kv[0]) == labelKey {
				layer = str(kv[1])
			}
		}
		byLayer[layer] += s.values[col]
		total += s.values[col]
	}
	return byLayer, total, nil
}

var errTruncated = errors.New("truncated protobuf")

// eachField walks the fields of one protobuf message, handing each to
// f with its number, wire type, varint value (wire type 0) or bytes
// (wire type 2).
func eachField(b []byte, f func(num, wt int, v uint64, body []byte) error) error {
	for len(b) > 0 {
		key, n := binary.Uvarint(b)
		if n <= 0 {
			return errTruncated
		}
		b = b[n:]
		num, wt := int(key>>3), int(key&7)
		var (
			v    uint64
			body []byte
		)
		switch wt {
		case 0:
			v, n = binary.Uvarint(b)
			if n <= 0 {
				return errTruncated
			}
			b = b[n:]
		case 1:
			if len(b) < 8 {
				return errTruncated
			}
			b = b[8:]
		case 2:
			l, n := binary.Uvarint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return errTruncated
			}
			body, b = b[n:n+int(l)], b[n+int(l):]
		case 5:
			if len(b) < 4 {
				return errTruncated
			}
			b = b[4:]
		default:
			return fmt.Errorf("unsupported protobuf wire type %d", wt)
		}
		if err := f(num, wt, v, body); err != nil {
			return err
		}
	}
	return nil
}

// eachVarint walks a packed repeated varint field.
func eachVarint(b []byte, f func(uint64)) error {
	for len(b) > 0 {
		v, n := binary.Uvarint(b)
		if n <= 0 {
			return errTruncated
		}
		f(v)
		b = b[n:]
	}
	return nil
}
