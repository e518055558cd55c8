module hovercraft/bench

go 1.22

require hovercraft v0.0.0

replace hovercraft => ../
