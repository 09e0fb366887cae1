package bench

import (
	"strings"
	"testing"
)

func TestFormatSeconds(t *testing.T) {
	cases := map[float64]string{
		0:      "0",
		0.001:  "1.00e-03",
		1.5:    "1.500",
		42.25:  "42.2",
		1234.5: "1234",
	}
	for in, want := range cases {
		if got := formatSeconds(in); got != want {
			t.Errorf("formatSeconds(%v) = %q, want %q", in, got, want)
		}
	}
}

func TestFormatRate(t *testing.T) {
	if formatRate(0) != "-" {
		t.Error("zero rate")
	}
	if formatRate(3.456) != "3.46" {
		t.Errorf("got %q", formatRate(3.456))
	}
	if formatRate(123.4) != "123.4" {
		t.Errorf("got %q", formatRate(123.4))
	}
	if formatRate(50000) != "50000" {
		t.Errorf("got %q", formatRate(50000))
	}
}

func TestFormatBytes(t *testing.T) {
	cases := map[int64]string{
		512:              "512 B",
		2048:             "2.0 KiB",
		5 << 20:          "5.0 MiB",
		3 << 30:          "3.0 GiB",
		int64(7) << 40:   "7.0 TiB",
		int64(1536) << 0: "1.5 KiB",
	}
	for in, want := range cases {
		if got := formatBytes(in); got != want {
			t.Errorf("formatBytes(%d) = %q, want %q", in, got, want)
		}
	}
	if !strings.HasSuffix(formatBytes(int64(2)<<50), "PiB") {
		t.Error("PiB formatting")
	}
}
