package core

import (
	"reflect"
	"slices"
	"testing"
)

// TestConfigFieldCensus pins Config's exported fields, so a new knob is
// a visible one-line change here, judged on its own.
func TestConfigFieldCensus(t *testing.T) {
	want := []string{
		"Fanouts", "BatchSize", "Threads", "RingSize",
		"Seed", "CacheBudgetBytes", "FetchFeatures",
		"FeatureCacheBudgetBytes", "WrapRing",
	}
	var got []string
	typ := reflect.TypeFor[Config]()
	for i := range typ.NumField() {
		if f := typ.Field(i); f.IsExported() {
			got = append(got, f.Name)
		}
	}
	if !slices.Equal(got, want) {
		t.Fatalf("core.Config fields\n got %q\nwant %q", got, want)
	}
}

// TestConfigBoundsThreads: MaxThreads is accepted and one more is
// refused, by validation alone — no pool, thread or ring is started.
func TestConfigBoundsThreads(t *testing.T) {
	for _, tc := range []struct {
		threads int
		ok      bool
	}{{MaxThreads, true}, {MaxThreads + 1, false}, {0, false}} {
		cfg := DefaultConfig()
		cfg.Threads = tc.threads
		if err := cfg.validate(); (err == nil) != tc.ok {
			t.Errorf("Threads %d: err = %v, want ok %v", tc.threads, err, tc.ok)
		}
	}
}
