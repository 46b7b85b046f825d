package server

import "math"

// evalRequest is the wire shape of an eval request body.
type evalRequest struct {
	// Root selects the published root by its handle ID; defaults to the
	// artifact's first root.
	Root        *uint64  `json:"root,omitempty"`
	Assignments [][]bool `json:"assignments"`
}

// parseEvalRequest decodes an eval body. The canonical shape, which is
// what clients' JSON encoders write, goes through scanEval; every other
// byte sequence goes to encoding/json, so a non-canonical spelling gets
// exactly the answer it always got. FuzzEvalDecode holds the scanner to
// encoding/json on every input the scanner accepts.
func parseEvalRequest(body []byte) (evalRequest, error) {
	if req, ok := scanEval(body); ok {
		return req, nil
	}
	var req evalRequest
	err := decodeJSON(body, &req)
	return req, err
}

// scanEval parses the canonical eval body: one object whose keys are
// "root" and "assignments", each optional and at most once, spelled
// exactly so with no escapes; root a plain unsigned decimal that fits a
// uint64; assignments an array of arrays of bare true and false. JSON
// whitespace may appear anywhere, and nothing else may follow the
// object. On any other input it reports false and decodes nothing more:
// case-folded and escaped keys, nulls, unknown fields, duplicate keys and
// trailing bytes are encoding/json's to answer.
func scanEval(body []byte) (evalRequest, bool) {
	var req evalRequest
	s := evalScanner{b: body}
	if !s.next('{') {
		return req, false
	}
	for n := 0; !s.next('}'); n++ {
		if n > 0 && !s.next(',') {
			return req, false
		}
		var ok bool
		switch {
		case s.word(`"root"`):
			if req.Root != nil || !s.next(':') {
				return req, false
			}
			var root uint64
			root, ok = s.uint64()
			req.Root = &root
		case s.word(`"assignments"`):
			// rows never returns nil, so nil means not seen yet.
			if req.Assignments != nil || !s.next(':') {
				return req, false
			}
			req.Assignments, ok = s.rows()
		}
		if !ok {
			return req, false
		}
	}
	s.skipSpace()
	return req, s.i == len(s.b)
}

// evalScanner is scanEval's cursor over the body.
type evalScanner struct {
	b []byte
	i int
}

func (s *evalScanner) skipSpace() {
	for s.i < len(s.b) {
		switch s.b[s.i] {
		case ' ', '\t', '\n', '\r':
			s.i++
		default:
			return
		}
	}
}

// next skips whitespace and consumes c if it comes next.
func (s *evalScanner) next(c byte) bool {
	s.skipSpace()
	if s.i < len(s.b) && s.b[s.i] == c {
		s.i++
		return true
	}
	return false
}

// word skips whitespace and consumes w if it comes next.
func (s *evalScanner) word(w string) bool {
	s.skipSpace()
	if len(s.b)-s.i >= len(w) && string(s.b[s.i:s.i+len(w)]) == w {
		s.i += len(w)
		return true
	}
	return false
}

// bool consumes a bare true or false. The literals are spelled out
// rather than passed to word so the compiler compares them as integers.
func (s *evalScanner) bool() (v, ok bool) {
	s.skipSpace()
	rest := s.b[s.i:]
	switch {
	case len(rest) >= 4 && string(rest[:4]) == "true":
		s.i += 4
		return true, true
	case len(rest) >= 5 && string(rest[:5]) == "false":
		s.i += 5
		return false, true
	}
	return false, false
}

// uint64 consumes a decimal with no sign, fraction, exponent or leading
// zero that fits a uint64. A digit after a leading zero is left for the
// caller, which refuses it as a missing delimiter.
func (s *evalScanner) uint64() (uint64, bool) {
	s.skipSpace()
	start := s.i
	var v uint64
	for s.i < len(s.b) && '0' <= s.b[s.i] && s.b[s.i] <= '9' {
		d := uint64(s.b[s.i] - '0')
		if v > (math.MaxUint64-d)/10 {
			return 0, false
		}
		v = v*10 + d
		s.i++
		if v == 0 {
			break
		}
	}
	return v, s.i > start
}

// rows consumes an array of arrays of true and false. Every row aliases
// one flat backing slice, which is sized so it never reallocates: each
// value takes at least four bytes of input.
func (s *evalScanner) rows() ([][]bool, bool) {
	if !s.next('[') {
		return nil, false
	}
	flat := make([]bool, 0, (len(s.b)-s.i)/4)
	rows := [][]bool{}
	for n := 0; !s.next(']'); n++ {
		if n > 0 && !s.next(',') || !s.next('[') {
			return nil, false
		}
		start := len(flat)
		for m := 0; !s.next(']'); m++ {
			if m > 0 && !s.next(',') {
				return nil, false
			}
			v, ok := s.bool()
			if !ok {
				return nil, false
			}
			flat = append(flat, v)
		}
		rows = append(rows, flat[start:len(flat):len(flat)])
	}
	return rows, true
}
