module fluxquery/bench

go 1.22

require fluxquery v0.0.0

replace fluxquery => ../
