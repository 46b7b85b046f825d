package server

import (
	"fmt"
	"reflect"
	"strings"
	"testing"
)

// canonicalEvalBody is a 256×22 eval body of the given root in the
// shape a JSON encoder writes for a mult-11 batch: keys in sorted order,
// no whitespace.
func canonicalEvalBody(root uint64) string {
	var b strings.Builder
	b.WriteString(`{"assignments":[`)
	for r := 0; r < 256; r++ {
		if r > 0 {
			b.WriteByte(',')
		}
		b.WriteByte('[')
		for v := 0; v < 22; v++ {
			if v > 0 {
				b.WriteByte(',')
			}
			if (r*31+v*7)%3 == 0 {
				b.WriteString("true")
			} else {
				b.WriteString("false")
			}
		}
		b.WriteByte(']')
	}
	fmt.Fprintf(&b, `],"root":%d}`, root)
	return b.String()
}

// TestScanEval pins which bodies take the scanner and which fall back to
// encoding/json. A scanner that refused everything would pass every
// equivalence check, so the accepted side is asserted too.
func TestScanEval(t *testing.T) {
	accept := []string{
		`{"root":3,"assignments":[[true,false],[false,true]]}`,
		`{"assignments":[[true]],"root":18446744073709551615}`,
		" \t\r\n{ \"root\" : 0 , \"assignments\" : [ [ true , false ] , [ ] ] } \n",
		`{"assignments":[]}`,
		`{"root":12}`,
		`{}`,
		canonicalEvalBody(7),
	}
	for _, body := range accept {
		if _, ok := scanEval([]byte(body)); !ok {
			t.Errorf("scanner refused canonical body %.60q", body)
		}
	}
	refuse := []string{
		``,
		`[]`,
		`{"Assignments":[[true]]}`,
		`{"ROOT":1}`,
		`{"\u0072oot":1}`,
		`{"root":null,"assignments":[[true]]}`,
		`{"assignments":null}`,
		`{"assignments":[[true]],"assignments":[[false]]}`,
		`{"root":1,"root":2}`,
		`{"assignments":[[true]],"extra":1}`,
		`{"assignments":[[null,true]]}`,
		`{"assignments":[[true]]}x`,
		`{"assignments":[[true]]}{}`,
		`{"root":01}`,
		`{"root":1e0}`,
		`{"root":1.0}`,
		`{"root":-1}`,
		`{"root":"1"}`,
		`{"root":18446744073709551616}`,
		`{"root""assignments":[[true]]}`,
		`{"root":1 "assignments":[[true]]}`,
		`{"root":1,}`,
		`{,"root":1}`,
		`{"assignments":[[true,]]}`,
		`{"assignments":[[true],]}`,
		`{"assignments":[[truefalse]]}`,
		`{"assignments":[[tru]]}`,
		`{"assignments":[[1]]}`,
		`{"assignments":[true]}`,
		`{"assignments":[[true]]`,
		`{"root":1`,
	}
	for _, body := range refuse {
		if _, ok := scanEval([]byte(body)); ok {
			t.Errorf("scanner accepted non-canonical body %q", body)
		}
	}
}

// FuzzEvalDecode is the differential check on the eval decoder: whenever
// the scanner accepts an input, encoding/json must accept it too and
// decode the same root and the same rows.
//
//	go test -run '^$' -fuzz FuzzEvalDecode -fuzztime 30s ./internal/server/
func FuzzEvalDecode(f *testing.F) {
	// The canonical shape at a size the fuzzer mutates quickly; the
	// 256×22 body is covered by TestScanEval and BenchmarkEvalHandler.
	f.Add([]byte(`{"assignments":[[true,false,true],[false,false,true]],"root":7}`))
	f.Add([]byte(" \t\r\n{ \"root\" :\n 5 ,\t\"assignments\" : [\r\n[ true ,false ] ,\n[\tfalse, true ] ] }\n "))
	f.Add([]byte(`{"assignments":[]}`))
	f.Fuzz(func(t *testing.T, body []byte) {
		got, ok := scanEval(body)
		if !ok {
			return
		}
		var want evalRequest
		if err := decodeJSON(body, &want); err != nil {
			t.Fatalf("scanner accepted %q, encoding/json refused it: %v", body, err)
		}
		if !reflect.DeepEqual(got.Root, want.Root) {
			t.Fatalf("%q: scanner root %v, encoding/json root %v", body, deref(got.Root), deref(want.Root))
		}
		if !reflect.DeepEqual(got.Assignments, want.Assignments) {
			t.Fatalf("%q: scanner rows %v, encoding/json rows %v", body, got.Assignments, want.Assignments)
		}
	})
}

func deref(p *uint64) any {
	if p == nil {
		return nil
	}
	return *p
}
