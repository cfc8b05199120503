module disco/bench

go 1.24

require disco v0.0.0

replace disco => ../
