package units

import "testing"

func TestSecondsString(t *testing.T) {
	cases := []struct {
		in   Seconds
		want string
	}{
		{0, "0s"},
		{0.0000005, "0.5µs"},
		{0.002, "2.0ms"},
		{1.25, "1.25s"},
		{90, "90.00s"},
		{600, "10.0min"},
		{7205, "2.00h"},
	}
	for _, c := range cases {
		if got := c.in.String(); got != c.want {
			t.Errorf("Seconds(%g).String() = %q, want %q", float64(c.in), got, c.want)
		}
	}
}

func TestBytesString(t *testing.T) {
	cases := []struct {
		in   Bytes
		want string
	}{
		{512, "512B"},
		{1500, "1.5kB"},
		{92e3, "92.0kB"},
		{240e6, "240.0MB"},
		{12e9, "12.00GB"},
	}
	for _, c := range cases {
		if got := c.in.String(); got != c.want {
			t.Errorf("Bytes(%g).String() = %q, want %q", float64(c.in), got, c.want)
		}
	}
}

func TestByteConstants(t *testing.T) {
	if KB != 1e3 || MB != 1e6 || GB != 1e9 {
		t.Errorf("byte constants are not decimal: KB=%g MB=%g GB=%g", float64(KB), float64(MB), float64(GB))
	}
}
