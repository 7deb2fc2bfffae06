package core

import (
	"math"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
)

func TestValueConstructorsAndAccessors(t *testing.T) {
	cases := []struct {
		v    Value
		kind Kind
		str  string
	}{
		{Null(), KindNull, "NULL"},
		{S("abc"), KindString, "abc"},
		{S(""), KindString, ""},
		{I(-42), KindInt, "-42"},
		{I(0), KindInt, "0"},
		{F(2.5), KindFloat, "2.5"},
		{B(true), KindBool, "true"},
		{B(false), KindBool, "false"},
	}
	for _, c := range cases {
		if c.v.Kind() != c.kind {
			t.Errorf("%v: kind %v, want %v", c.v, c.v.Kind(), c.kind)
		}
		if c.v.String() != c.str {
			t.Errorf("%v: string %q, want %q", c.v, c.v.String(), c.str)
		}
	}
	if !Null().IsNull() || S("x").IsNull() {
		t.Error("IsNull misclassifies")
	}
	if S("hi").Str() != "hi" || I(7).Int() != 7 || F(1.5).Float() != 1.5 || !B(true).Bool() {
		t.Error("payload accessors broken")
	}
}

func TestValueCompare(t *testing.T) {
	ordered := []Value{
		Null(),
		S(""), S("a"), S("ab"), S("b"),
		I(-5), I(0), I(9),
		F(math.Inf(-1)), F(-1), F(0), F(3.14), F(math.Inf(1)), F(math.NaN()),
		B(false), B(true),
	}
	for i := range ordered {
		for j := range ordered {
			c := ordered[i].Compare(ordered[j])
			switch {
			case i < j && c >= 0:
				t.Errorf("Compare(%v, %v) = %d, want < 0", ordered[i], ordered[j], c)
			case i > j && c <= 0:
				t.Errorf("Compare(%v, %v) = %d, want > 0", ordered[i], ordered[j], c)
			case i == j && c != 0:
				t.Errorf("Compare(%v, %v) = %d, want 0", ordered[i], ordered[j], c)
			}
		}
	}
}

func TestKindString(t *testing.T) {
	for k, want := range map[Kind]string{
		KindNull: "null", KindString: "string", KindInt: "int",
		KindFloat: "float", KindBool: "bool", Kind(99): "kind(99)",
	} {
		if got := k.String(); got != want {
			t.Errorf("Kind(%d).String() = %q, want %q", k, got, want)
		}
	}
}

// randomValue generates an arbitrary value for property tests.
func randomValue(r *rand.Rand) Value {
	switch r.Intn(5) {
	case 0:
		return Null()
	case 1:
		b := make([]byte, r.Intn(12))
		r.Read(b)
		return S(string(b))
	case 2:
		return I(int64(r.Uint64()))
	case 3:
		return F(math.Float64frombits(r.Uint64()))
	default:
		return B(r.Intn(2) == 0)
	}
}

// genValue lets testing/quick produce Values.
type genValue struct{ V Value }

func (genValue) Generate(r *rand.Rand, _ int) reflect.Value {
	return reflect.ValueOf(genValue{V: randomValue(r)})
}

func TestValueEncodeRoundTrip(t *testing.T) {
	prop := func(g genValue) bool {
		enc := g.V.appendEncoded(nil)
		dec, n, err := decodeValue(string(enc))
		return err == nil && n == len(enc) && n == g.V.encodedLen() && dec == g.V
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

func TestValueEncodeInjective(t *testing.T) {
	prop := func(a, b genValue) bool {
		ea := string(a.V.appendEncoded(nil))
		eb := string(b.V.appendEncoded(nil))
		return (ea == eb) == (a.V == b.V)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

func TestDecodeValueErrors(t *testing.T) {
	bad := [][]byte{
		{},                                  // empty
		{byte(KindString)},                  // missing length
		{byte(KindString), 5},               // short payload
		{byte(KindInt)},                     // missing varint
		{99},                                // unknown kind
		{byte(KindString), 0x81, 0x00, 'a'}, // padded length
		{byte(KindInt), 0x80, 0x00},         // padded varint
		{byte(KindInt), 0xff, 0xff, 0xff, 0xff, 0xff, // overflows 64 bits
			0xff, 0xff, 0xff, 0xff, 0x02},
	}
	for _, b := range bad {
		if _, _, err := decodeValue(string(b)); err == nil {
			t.Errorf("decodeValue(%v) should fail", b)
		}
	}
}
