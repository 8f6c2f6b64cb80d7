module querc/bench

go 1.24

require querc v0.0.0

replace querc => ../
