module ringsampler/cmd/bench

go 1.23

require ringsampler v0.0.0

replace ringsampler => ../..
