module mdtask/benchmark

go 1.22

require mdtask v0.0.0

replace mdtask => ../
