package serve

import (
	"reflect"
	"slices"
	"testing"
)

// TestConfigFieldCensus pins Config's exported fields, so a new knob is
// a visible one-line change here, judged on its own.
func TestConfigFieldCensus(t *testing.T) {
	want := []string{"Core", "QueueDepth"}
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

// TestConfigResolve: a zero QueueDepth takes its default, a queue
// depth at MaxQueueDepth is accepted, and a queue depth outside
// [1,MaxQueueDepth] or a bad batch size is refused — by validation
// alone, before any channel is made.
func TestConfigResolve(t *testing.T) {
	c := Config{Core: DefaultConfig().Core}
	if err := c.resolve(); err != nil {
		t.Fatal(err)
	}
	if c.QueueDepth != DefaultConfig().QueueDepth {
		t.Fatalf("zero config resolved to queue depth %d, want %d", c.QueueDepth, DefaultConfig().QueueDepth)
	}
	c = DefaultConfig()
	c.QueueDepth = MaxQueueDepth
	if err := c.resolve(); err != nil {
		t.Fatalf("queue depth at the cap: %v", err)
	}
	for name, mut := range map[string]func(*Config){
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
