package memctl

import (
	"errors"
	"testing"
)

// TestBudgetCharge: charges accumulate up to the limit, and one past
// it fails with an error wrapping ErrOOM.
func TestBudgetCharge(t *testing.T) {
	b := New(100)
	if err := b.Charge(60); err != nil {
		t.Fatal(err)
	}
	if err := b.Charge(40); err != nil {
		t.Fatal(err)
	}
	if b.Used() != 100 || b.Remaining() != 0 {
		t.Fatalf("used=%d remaining=%d", b.Used(), b.Remaining())
	}
	err := b.Charge(1)
	if err == nil {
		t.Fatal("over-budget charge accepted")
	}
	if !errors.Is(err, ErrOOM) {
		t.Fatalf("over-budget error not an OOM: %v", err)
	}
	if b.Used() != 100 {
		t.Fatalf("failed charge leaked: used = %d, want 100", b.Used())
	}
}

func TestUnlimitedBudget(t *testing.T) {
	b := New(0)
	if err := b.Charge(1 << 50); err != nil {
		t.Fatal(err)
	}
	if b.Limit() != 0 {
		t.Fatalf("Limit() = %d, want 0", b.Limit())
	}
}

// TestIsOOMOnOtherErrors: only a charge past the limit is an OOM; no
// error and a caller bug's error are not.
func TestIsOOMOnOtherErrors(t *testing.T) {
	if errors.Is(nil, ErrOOM) {
		t.Fatal("nil error classified as OOM")
	}
	b := New(10)
	if err := b.Charge(-1); err == nil || errors.Is(err, ErrOOM) {
		t.Fatalf("negative charge: err = %v, want a non-OOM error", err)
	}
	if err := b.Charge(11); !errors.Is(err, ErrOOM) {
		t.Fatalf("charge past the limit: err = %v, want OOM", err)
	}
}

// TestNegativeCharge: a negative charge is a caller bug — rejected
// without mutating the accountant, and not classified as OOM.
func TestNegativeCharge(t *testing.T) {
	b := New(100)
	if err := b.Charge(30); err != nil {
		t.Fatal(err)
	}
	err := b.Charge(-1)
	if err == nil {
		t.Fatal("negative charge accepted")
	}
	if errors.Is(err, ErrOOM) {
		t.Fatalf("negative-charge error misclassified as OOM: %v", err)
	}
	if b.Used() != 30 || b.Remaining() != 70 {
		t.Fatalf("negative charge mutated state: used=%d remaining=%d", b.Used(), b.Remaining())
	}
}

// TestExactFit: a charge landing exactly on the limit succeeds; the
// next byte does not, and the failed charge leaves nothing charged.
func TestExactFit(t *testing.T) {
	b := New(64)
	if err := b.Charge(64); err != nil {
		t.Fatalf("exact-fit charge rejected: %v", err)
	}
	if b.Remaining() != 0 {
		t.Fatalf("Remaining() = %d at exact fit, want 0", b.Remaining())
	}
	if err := b.Charge(1); !errors.Is(err, ErrOOM) {
		t.Fatalf("one byte past the limit: err = %v, want OOM", err)
	}
	if b.Used() != 64 {
		t.Fatalf("failed charge leaked: used = %d, want 64", b.Used())
	}
	// Zero-byte charges are free at any fill level.
	if err := b.Charge(0); err != nil {
		t.Fatalf("zero charge at full budget rejected: %v", err)
	}
}

// TestRemainingUnlimited: an unlimited budget reports -1 remaining at
// any fill level and still tracks Used.
func TestRemainingUnlimited(t *testing.T) {
	b := New(0)
	if b.Remaining() != -1 {
		t.Fatalf("Remaining() = %d on unlimited budget, want -1", b.Remaining())
	}
	if err := b.Charge(1 << 40); err != nil {
		t.Fatal(err)
	}
	if b.Remaining() != -1 {
		t.Fatalf("Remaining() = %d after charge on unlimited budget, want -1", b.Remaining())
	}
	if b.Used() != 1<<40 {
		t.Fatalf("unlimited budget lost accounting: used=%d", b.Used())
	}
}
