module apstdv/bench

go 1.22

require apstdv v0.0.0

replace apstdv => ../
