module morphing/benchmark

go 1.22

require morphing v0.0.0

replace morphing => ../
