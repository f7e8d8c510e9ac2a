module noisyeval/bench

go 1.24

require noisyeval v0.0.0

replace noisyeval => ../
