module natpunch/benchmark

go 1.24

require natpunch v0.0.0

replace natpunch => ../
