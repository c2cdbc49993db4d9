module ramr/bench

go 1.24

require ramr v0.0.0

replace ramr => ../
