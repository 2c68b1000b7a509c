package stats

import (
	"math"
	"strings"
	"testing"
	"testing/quick"
)

func almostEqual(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

func TestGeomean(t *testing.T) {
	if g := Geomean([]float64{2, 8}); !almostEqual(g, 4) {
		t.Fatalf("Geomean(2,8) = %g, want 4", g)
	}
	if g := Geomean([]float64{5}); !almostEqual(g, 5) {
		t.Fatalf("Geomean(5) = %g", g)
	}
	if g := Geomean(nil); g != 0 {
		t.Fatalf("Geomean(nil) = %g, want 0", g)
	}
}

func TestGeomeanPanicsOnNonPositive(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic on zero value")
		}
	}()
	Geomean([]float64{1, 0})
}

func TestGeomeanBetweenMinAndMax(t *testing.T) {
	check := func(raw []uint16) bool {
		var xs []float64
		for _, v := range raw {
			xs = append(xs, float64(v)+1)
		}
		if len(xs) == 0 {
			return true
		}
		lo, hi := xs[0], xs[0]
		for _, x := range xs {
			lo, hi = min(lo, x), max(hi, x)
		}
		g := Geomean(xs)
		return g >= lo-1e-9 && g <= hi+1e-9
	}
	if err := quick.Check(check, nil); err != nil {
		t.Fatal(err)
	}
}

func TestMean(t *testing.T) {
	xs := []float64{3, 1, 4, 1, 5}
	if m := Mean(xs); !almostEqual(m, 2.8) {
		t.Errorf("Mean = %g", m)
	}
	if Mean(nil) != 0 {
		t.Error("empty-slice mean should be 0")
	}
}

func TestTableRendering(t *testing.T) {
	tab := NewTable("Title", "Name", "Value")
	tab.AddRow("alpha", "1")
	tab.AddRow("beta", "2.5")
	out := tab.String()
	if !strings.Contains(out, "Title") {
		t.Error("missing title")
	}
	if !strings.Contains(out, "alpha") || !strings.Contains(out, "beta") {
		t.Error("missing rows")
	}
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 5 { // title, header, rule, 2 rows
		t.Fatalf("got %d lines:\n%s", len(lines), out)
	}
	// Columns align: all data lines equal width or less than header rule.
	if len(lines[1]) > len(lines[2]) {
		t.Error("rule shorter than header")
	}
}

func TestTableMissingAndExtraCells(t *testing.T) {
	tab := NewTable("", "A", "B")
	tab.AddRow("only")
	tab.AddRow("x", "y", "dropped")
	out := tab.String()
	if strings.Contains(out, "dropped") {
		t.Error("extra cell not dropped")
	}
}
