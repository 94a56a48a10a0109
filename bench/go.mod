module capsys/bench

go 1.22

require capsys v0.0.0

replace capsys => ../
