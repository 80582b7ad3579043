package main

import (
	"context"
	"os"
	"os/exec"
	"runtime"
	"strings"
	"time"
)

// environment is printed in every report, so that two numbers are only
// ever compared knowing what produced them.
type environment struct {
	Commit     string `json:"commit"`
	GoVersion  string `json:"go_version"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	NProc      int    `json:"nproc"`
	Workers    int    `json:"workers_w"`
	Clients    int    `json:"clients"`
	GOGC       string `json:"gogc"`
	Kernel     string `json:"kernel"`
	UringCaps  string `json:"uring_caps"`
	Backend    string `json:"backend"`
	Dataset    string `json:"dataset"`
	DatasetID  string `json:"dataset_checksum"`
	Seed       uint64 `json:"seed"`
}

func (b *bench) environment() environment {
	gogc := os.Getenv("GOGC")
	if gogc == "" {
		gogc = "100"
	}
	return environment{
		Commit:     gitCommit(),
		GoVersion:  runtime.Version(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		NProc:      runtime.NumCPU(),
		Workers:    b.workers,
		Clients:    b.clients,
		GOGC:       gogc,
		Kernel:     kernelRelease(),
		UringCaps:  ringCaps(),
		Backend:    string(ringBackend()),
		Dataset:    b.data.Name,
		DatasetID:  b.data.ID,
		Seed:       b.seed,
	}
}

// gitCommit asks git for the checkout's commit; a checkout that is not a
// repository (the driver's) reports "unknown".
func gitCommit() string {
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	out, err := exec.CommandContext(ctx, "git", "rev-parse", "--short", "HEAD").Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}

func kernelRelease() string {
	data, err := os.ReadFile("/proc/sys/kernel/osrelease")
	if err != nil {
		return runtime.GOOS
	}
	return strings.TrimSpace(string(data))
}
