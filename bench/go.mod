module dynctrl/bench

go 1.23

require dynctrl v0.0.0

replace dynctrl => ../
