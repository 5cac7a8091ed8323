module github.com/bidl-framework/bidl/benchmark

go 1.22

require github.com/bidl-framework/bidl v0.0.0

replace github.com/bidl-framework/bidl => ../
