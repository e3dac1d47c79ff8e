module cwcs/bench

go 1.24

require cwcs v0.0.0

replace cwcs => ../
