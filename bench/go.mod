module orchestra/bench

go 1.24

require orchestra v0.0.0

replace orchestra => ../
