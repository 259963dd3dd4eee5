package main

import (
	"os"
	"time"
)

// rssEvery is how often the resident set is sampled.
const rssEvery = 2 * time.Millisecond

// residentPages reads the resident set, in pages, from an open
// /proc/self/statm ("size resident shared ...").
func residentPages(f *os.File) int {
	var buf [128]byte
	n, _ := f.ReadAt(buf[:], 0)
	i := 0
	for i < n && buf[i] != ' ' {
		i++
	}
	pages := 0
	for i++; i < n && buf[i] >= '0' && buf[i] <= '9'; i++ {
		pages = pages*10 + int(buf[i]-'0')
	}
	return pages
}

func pagesMiB(pages int) float64 { return float64(pages) * float64(os.Getpagesize()) / (1 << 20) }

// residentMiB is the process's resident set now, in MiB.
func residentMiB() float64 {
	f, err := os.Open("/proc/self/statm")
	if err != nil {
		return 0
	}
	defer f.Close()
	return pagesMiB(residentPages(f))
}

// rssSampler tracks the peak resident set of the process over an
// interval by reading /proc/self/statm.
type rssSampler struct {
	quit chan struct{}
	done chan float64
}

func startRSS() *rssSampler {
	s := &rssSampler{quit: make(chan struct{}), done: make(chan float64, 1)}
	// irlint:goroutine-exits run returns once stop closes quit, and stop waits for its result on done
	go s.run()
	return s
}

func (s *rssSampler) run() {
	f, err := os.Open("/proc/self/statm")
	if err != nil {
		s.done <- 0
		return
	}
	defer f.Close()
	peak := 0
	sample := func() {
		if p := residentPages(f); p > peak {
			peak = p
		}
	}
	tick := time.NewTicker(rssEvery)
	defer tick.Stop()
	for {
		sample()
		select {
		case <-s.quit:
			sample()
			s.done <- pagesMiB(peak)
			return
		case <-tick.C:
		}
	}
}

// stop ends sampling and returns the peak in MiB.
func (s *rssSampler) stop() float64 {
	close(s.quit)
	return <-s.done
}
