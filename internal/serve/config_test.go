package serve

import (
	"reflect"
	"slices"
	"testing"

	"ringsampler/internal/uring"
)

// TestConfigFieldCensus pins Config's exported fields, so a new knob is
// a visible one-line change here, judged on its own.
func TestConfigFieldCensus(t *testing.T) {
	want := []string{"Core", "Backend", "QueueDepth"}
	var got []string
	typ := reflect.TypeFor[Config]()
	for i := range typ.NumField() {
		if f := typ.Field(i); f.IsExported() {
			got = append(got, f.Name)
		}
	}
	if !slices.Equal(got, want) {
		t.Fatalf("serve.Config fields\n got %q\nwant %q", got, want)
	}
}

// TestConfigResolve: a zero QueueDepth and an empty Backend take their
// defaults, a backend name is parsed case-insensitively, a queue depth
// at MaxQueueDepth is accepted, and a bad name, a queue depth outside
// [1,MaxQueueDepth] or a bad batch size is refused — by validation
// alone, before any channel is made.
func TestConfigResolve(t *testing.T) {
	c := Config{Core: DefaultConfig().Core}
	if err := c.resolve(); err != nil {
		t.Fatal(err)
	}
	auto, _ := uring.ParseBackend("auto")
	if c.QueueDepth != DefaultConfig().QueueDepth || c.Backend != auto {
		t.Fatalf("zero config resolved to queue depth %d, backend %q; want %d, %q",
			c.QueueDepth, c.Backend, DefaultConfig().QueueDepth, auto)
	}
	c = DefaultConfig()
	c.QueueDepth = MaxQueueDepth
	if err := c.resolve(); err != nil {
		t.Fatalf("queue depth at the cap: %v", err)
	}
	c = DefaultConfig()
	c.Backend = "POOL"
	if err := c.resolve(); err != nil || c.Backend != uring.BackendPool {
		t.Fatalf("backend POOL resolved to %q, err %v", c.Backend, err)
	}
	for name, mut := range map[string]func(*Config){
		"bad backend": func(c *Config) { c.Backend = "spdk" },
		"queue depth": func(c *Config) { c.QueueDepth = -1 },
		"queue cap":   func(c *Config) { c.QueueDepth = MaxQueueDepth + 1 },
		"batch size":  func(c *Config) { c.Core.BatchSize = 0 },
	} {
		c := DefaultConfig()
		mut(&c)
		if err := c.resolve(); err == nil {
			t.Errorf("%s: accepted %+v", name, c)
		}
	}
}
