package invariant

import (
	"strings"
	"testing"
)

func TestCleanCheckerReportsNothing(t *testing.T) {
	c := New()
	if !c.Checkf(true, "x", "y", 0, "fine") {
		t.Fatal("Checkf(true) returned false")
	}
	if c.Count() != 0 || c.Err() != nil || len(c.Violations()) != 0 {
		t.Fatalf("clean checker: count=%d err=%v", c.Count(), c.Err())
	}
}

func TestCheckfRecordsFailures(t *testing.T) {
	c := New()
	if c.Checkf(false, "dram", "tRP", 42, "gap %dps", 7) {
		t.Fatal("Checkf(false) returned true")
	}
	c.Reportf("core", "structural", 99, "broken")
	if c.Count() != 2 {
		t.Fatalf("count = %d", c.Count())
	}
	vs := c.Violations()
	if vs[0].Component != "dram" || vs[0].Rule != "tRP" || vs[0].At != 42 || vs[0].Detail != "gap 7ps" {
		t.Fatalf("violation 0 = %+v", vs[0])
	}
	if got := vs[0].String(); !strings.Contains(got, "dram/tRP") || !strings.Contains(got, "42ps") {
		t.Fatalf("String() = %q", got)
	}
	err := c.Err()
	if err == nil || !strings.Contains(err.Error(), "2 invariant violation(s)") {
		t.Fatalf("Err() = %v", err)
	}
}

func TestErrTruncatesLongLists(t *testing.T) {
	c := New()
	for i := 0; i < 10; i++ {
		c.Reportf("x", "r", int64(i), "v%d", i)
	}
	err := c.Err()
	if err == nil || !strings.Contains(err.Error(), "... 5 more") {
		t.Fatalf("Err() = %v", err)
	}
}

func TestStoreLimitBoundsRetention(t *testing.T) {
	c := New()
	for i := 0; i < storeLimit+50; i++ {
		c.Reportf("x", "r", 0, "v")
	}
	if c.Count() != storeLimit+50 {
		t.Fatalf("count = %d", c.Count())
	}
	if len(c.Violations()) != storeLimit {
		t.Fatalf("retained = %d", len(c.Violations()))
	}
}
