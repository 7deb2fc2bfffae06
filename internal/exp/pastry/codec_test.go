package pastry

import "testing"

func TestEncodeDecodeErrors(t *testing.T) {
	if err := Decode([]byte("garbage"), &struct{ X int }{}); err == nil {
		t.Error("decoding garbage should fail")
	}
	if _, err := Encode(make(chan int)); err == nil {
		t.Error("encoding a channel should fail")
	}
	defer func() {
		if recover() == nil {
			t.Error("MustEncode should panic on unencodable value")
		}
	}()
	MustEncode(make(chan int))
}
