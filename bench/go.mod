module mvdb/bench

go 1.24

require mvdb v0.0.0

replace mvdb => ../
