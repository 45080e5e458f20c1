module spoofscope/benchmark

go 1.22

require spoofscope v0.0.0

replace spoofscope => ../
