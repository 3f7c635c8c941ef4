module p2pbackup/bench

go 1.24

require p2pbackup v0.0.0

replace p2pbackup => ../
