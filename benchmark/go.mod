module gnbody/benchmark

go 1.22

require gnbody v0.0.0

replace gnbody => ../
