// Package costmodel reproduces the paper's section 2.2.4: the
// back-of-envelope bandwidth analysis that sets the viability bar the
// simulation results are judged against.
//
// A repair downloads k blocks (to decode the archive) and uploads d
// replacement blocks. Encoding/decoding time and metadata updates are
// negligible next to transfer time on asymmetric home links, so
//
//	repair time = k*blockSize/downloadRate + d*blockSize/uploadRate
//
// With the paper's parameters (128 MB archives, k = m = 128, 32 kB/s
// up, 256 kB/s down) a worst-case repair (d = 128) takes about 77
// minutes, bounding a peer to roughly 20 repairs/day; a usable system
// therefore needs per-archive repair rates around one per month (one
// repair/day budget across 32 archives).
package costmodel

import (
	"errors"
	"fmt"
	"time"
)

// KB is 1024 bytes (the paper's kB/s figures are binary kilobytes).
const KB = 1024

// MB is 1024 KB.
const MB = 1024 * KB

// Link models an asymmetric access link in bytes per second.
type Link struct {
	UploadBps   float64
	DownloadBps float64
}

// DSL2009 returns the paper's reference DSL link: 32 kB/s up,
// 256 kB/s down.
func DSL2009() Link {
	return Link{UploadBps: 32 * KB, DownloadBps: 256 * KB}
}

// FTTH2009 returns the paper's "at least four times faster" modern
// connection for the sensitivity row.
func FTTH2009() Link {
	return Link{UploadBps: 128 * KB, DownloadBps: 1024 * KB}
}

// Code describes the archive erasure-coding shape.
type Code struct {
	ArchiveBytes int64
	K            int // data blocks (needed to decode)
	M            int // parity blocks
}

// PaperCode returns the paper's parameter table: 128 MB archives,
// k = 128, m = 128.
func PaperCode() Code {
	return Code{ArchiveBytes: 128 * MB, K: 128, M: 128}
}

// Validate checks the code shape.
func (c Code) Validate() error {
	if c.ArchiveBytes <= 0 {
		return fmt.Errorf("costmodel: archive size %d must be positive", c.ArchiveBytes)
	}
	if c.K < 1 || c.M < 0 {
		return fmt.Errorf("costmodel: invalid code k=%d m=%d", c.K, c.M)
	}
	return nil
}

// N returns the total block count.
func (c Code) N() int { return c.K + c.M }

// BlockBytes returns the size of one block (archive split into k).
func (c Code) BlockBytes() int64 {
	return (c.ArchiveBytes + int64(c.K) - 1) / int64(c.K)
}

// ErrBadLink reports non-positive link rates.
var ErrBadLink = errors.New("costmodel: link rates must be positive")

// RepairCost breaks a repair into its transfer phases.
type RepairCost struct {
	Download time.Duration // fetch k blocks to decode
	Upload   time.Duration // push d regenerated blocks
}

// Total returns the end-to-end repair time.
func (r RepairCost) Total() time.Duration { return r.Download + r.Upload }

// EstimateRepair computes the repair cost for replacing d blocks.
func EstimateRepair(l Link, c Code, d int) (RepairCost, error) {
	if l.UploadBps <= 0 || l.DownloadBps <= 0 {
		return RepairCost{}, ErrBadLink
	}
	if err := c.Validate(); err != nil {
		return RepairCost{}, err
	}
	if d < 0 || d > c.N() {
		return RepairCost{}, fmt.Errorf("costmodel: d = %d outside [0, n=%d]", d, c.N())
	}
	block := float64(c.BlockBytes())
	down := float64(c.K) * block / l.DownloadBps
	up := float64(d) * block / l.UploadBps
	return RepairCost{
		Download: time.Duration(down * float64(time.Second)),
		Upload:   time.Duration(up * float64(time.Second)),
	}, nil
}

// ParityUploadCost prices adding delta parity blocks to an existing
// archive: the owner already holds the data, so there is no decode
// download — only the section-2.2.4 upload term, delta blocks pushed up
// the link. This is the formula the adaptive redundancy policy charges
// a grow decision with; it agrees exactly with EstimateRepair's Upload
// component (pinned by a test).
func ParityUploadCost(c Code, delta int, l Link) (time.Duration, error) {
	if l.UploadBps <= 0 {
		return 0, ErrBadLink
	}
	if err := c.Validate(); err != nil {
		return 0, err
	}
	if delta < 0 || delta > c.N() {
		return 0, fmt.Errorf("costmodel: delta = %d outside [0, n=%d]", delta, c.N())
	}
	up := float64(delta) * float64(c.BlockBytes()) / l.UploadBps
	return time.Duration(up * float64(time.Second)), nil
}

// ParityCostHours prices adding blocks parity blocks to a 128 MB
// archive under a k-of-n code on the paper's reference DSL uplink
// (DSL2009), in hours: one block's ParityUploadCost times the count. It
// is 0 when nothing was added or the shape is not a valid code.
func ParityCostHours(k, n int, blocks int64) float64 {
	if blocks <= 0 {
		return 0
	}
	perBlock, err := ParityUploadCost(Code{ArchiveBytes: 128 * MB, K: k, M: n - k}, 1, DSL2009())
	if err != nil {
		return 0
	}
	return perBlock.Hours() * float64(blocks)
}

// maxRepairsPerDay returns how many worst-case repairs (d blocks each)
// the link can sustain per day, transfers back to back.
func maxRepairsPerDay(l Link, c Code, d int) (float64, error) {
	rc, err := EstimateRepair(l, c, d)
	if err != nil {
		return 0, err
	}
	if rc.Total() <= 0 {
		return 0, errors.New("costmodel: zero repair time")
	}
	return float64(24*time.Hour) / float64(rc.Total()), nil
}

// TableRow is one line of the section 2.2.4 summary table.
type TableRow struct {
	Label         string
	Link          Link
	D             int
	Cost          RepairCost
	RepairsPerDay float64
}

// PaperTable reproduces the section's numbers: the DSL worst case the
// paper walks through, the best case (d = 1), and the faster-link
// sensitivity row.
func PaperTable() ([]TableRow, error) {
	code := PaperCode()
	rows := []struct {
		label string
		link  Link
		d     int
	}{
		{"DSL worst case (d=128)", DSL2009(), 128},
		{"DSL single block (d=1)", DSL2009(), 1},
		{"FTTH worst case (d=128)", FTTH2009(), 128},
	}
	var out []TableRow
	for _, r := range rows {
		cost, err := EstimateRepair(r.link, code, r.d)
		if err != nil {
			return nil, err
		}
		perDay, err := maxRepairsPerDay(r.link, code, r.d)
		if err != nil {
			return nil, err
		}
		out = append(out, TableRow{Label: r.label, Link: r.link, D: r.d, Cost: cost, RepairsPerDay: perDay})
	}
	return out, nil
}
