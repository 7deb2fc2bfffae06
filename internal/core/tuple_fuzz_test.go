package core

import (
	"math"
	"testing"
)

// nonCanonicalTuples are encodings Encode never writes but a decoder that
// skipped the minimal-varint check would accept: each re-encodes to fewer
// bytes than it is, so accepting it would break encode(decode(b)) == b.
var nonCanonicalTuples = []struct {
	name string
	enc  []byte
}{
	{"padded string length", []byte{byte(KindString), 0x82, 0x00, 'a', 'b'}},
	{"padded int varint", []byte{byte(KindInt), 0x85, 0x00}},
}

// TestDecodeTupleCanonical: DecodeTuple rejects non-minimal varints, and
// what it accepts costs one allocation — the tuple, sized by its counting
// pass; string values are substrings of the input.
func TestDecodeTupleCanonical(t *testing.T) {
	for _, c := range nonCanonicalTuples {
		if tup, err := DecodeTuple(string(c.enc)); err == nil {
			t.Errorf("%s %x decoded to %v", c.name, c.enc, tup)
		}
	}
	enc := T(S("rat"), I(-1), Null(), F(2.5), B(true), S("")).Encode()
	tup, err := DecodeTuple(enc)
	if err != nil || tup.Encode() != enc {
		t.Fatalf("DecodeTuple = %v, %v", tup, err)
	}
	if len(tup) != 6 || cap(tup) != 6 {
		t.Errorf("decoded tuple len %d cap %d, want 6 and 6", len(tup), cap(tup))
	}
	if allocs := testing.AllocsPerRun(100, func() { DecodeTuple(enc) }); allocs != 1 {
		t.Errorf("DecodeTuple made %v allocations, want 1", allocs)
	}
}

// TestKeyEncMatchesProjection: KeyEnc, which encodes the key columns
// without projecting, is the encoding of the key projection — for a key
// that is a prefix of the attributes and for one that is not.
func TestKeyEncMatchesProjection(t *testing.T) {
	tup := T(S("rat"), I(300), S("cell-metab"))
	for _, key := range [][]int{{0}, {0, 1}, {2, 0}, {1}} {
		rel := &Relation{Name: "F", Attrs: []AttrDef{{Name: "a"}, {Name: "b"}, {Name: "c"}}, Key: key}
		want := tup.Project(key).Encode()
		if got := rel.KeyEnc(tup); got != want {
			t.Errorf("key %v: KeyEnc = %q, want %q", key, got, want)
		}
	}
}

// FuzzDecodeTuple: anything DecodeTuple accepts re-encodes to its input
// byte for byte, which is what lets a decoder keep the bytes it read as
// the decoded update's encoding cache.
func FuzzDecodeTuple(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte(Strs("rat", "prot1", "cell-metab").Encode()))
	f.Add([]byte(T(Null(), I(math.MinInt64), F(math.Inf(-1)), B(false), S("ü")).Encode()))
	for _, c := range nonCanonicalTuples {
		f.Add(c.enc)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		tup, err := DecodeTuple(string(data))
		if err != nil {
			return
		}
		if re := tup.Encode(); re != string(data) {
			t.Fatalf("%x decoded to %v, which re-encodes to %x", data, tup, re)
		}
	})
}
