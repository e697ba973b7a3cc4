module github.com/ghostdb/ghostdb/benchmark

go 1.24

require github.com/ghostdb/ghostdb v0.0.0

replace github.com/ghostdb/ghostdb => ../
