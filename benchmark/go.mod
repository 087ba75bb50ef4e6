module linkpred/benchmark

go 1.22

require linkpred v0.0.0

replace linkpred => ../
