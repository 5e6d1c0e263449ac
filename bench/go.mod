module schedsearch/bench

go 1.22

require schedsearch v0.0.0

replace schedsearch => ../
