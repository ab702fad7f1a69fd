// Package data reads and writes sequence databases in two text formats:
//
//   - native: one customer per line, "cid: (1 5)(2)(3 7)" — the paper's
//     notation with numeric items;
//   - SPMF: the format of the SPMF mining library, "1 5 -1 2 -1 3 7 -1 -2"
//     (itemsets separated by -1, sequences terminated by -2), one or more
//     sequences per line with implicit 1-based customer ids.
//
// Read auto-detects the format from the first data line.
package data

import (
	"bufio"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"

	"github.com/disc-mining/disc/internal/mining"
	"github.com/disc-mining/disc/internal/seq"
)

// Format selects a database text format.
type Format int

const (
	// Auto detects the format from the content (read side only).
	Auto Format = iota
	// Native is the "cid: (1 5)(2)" format.
	Native
	// SPMF is the "-1 / -2"-delimited format.
	SPMF
)

// Read parses a database from r, auto-detecting the format when f is
// Auto, under DefaultLimits.
func Read(r io.Reader, f Format) (mining.Database, error) {
	return ReadLimited(r, f, Limits{})
}

// ReadLimited is Read under explicit input bounds: a line longer than
// lim.MaxLineBytes or carrying more than lim.MaxTokens tokens fails
// with a *SizeError matching ErrInputTooLarge before the parser
// materializes it.
func ReadLimited(r io.Reader, f Format, lim Limits) (mining.Database, error) {
	lim = lim.withDefaults()
	maxBuf := lim.MaxLineBytes
	if maxBuf < 0 {
		maxBuf = int(^uint(0) >> 2) // bound disabled: cap only by the scanner
	}
	initBuf := 1 << 20
	if initBuf > maxBuf {
		initBuf = maxBuf
	}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, initBuf), maxBuf)
	var db mining.Database
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		if f == Auto {
			if strings.ContainsRune(line, '(') {
				f = Native
			} else {
				f = SPMF
			}
		}
		switch f {
		case Native:
			cs, err := parseNative(line, len(db)+1)
			if err != nil {
				return nil, fmt.Errorf("data: line %d: %w", lineNo, err)
			}
			if lim.MaxTokens > 0 && cs.Len() > lim.MaxTokens {
				return nil, &SizeError{Line: lineNo, What: "tokens", Limit: lim.MaxTokens}
			}
			db = append(db, cs)
		case SPMF:
			if lim.MaxTokens > 0 && countTokens(line) > lim.MaxTokens {
				return nil, &SizeError{Line: lineNo, What: "tokens", Limit: lim.MaxTokens}
			}
			css, err := parseSPMF(line, len(db)+1)
			if err != nil {
				return nil, fmt.Errorf("data: line %d: %w", lineNo, err)
			}
			db = append(db, css...)
		}
	}
	if err := sc.Err(); err != nil {
		return nil, sizeOverflow(err, lim)
	}
	return db, nil
}

func parseNative(line string, defaultCID int) (*seq.CustomerSeq, error) {
	cid := defaultCID
	body := line
	if i := strings.IndexByte(line, ':'); i >= 0 && !strings.ContainsRune(line[:i], '(') {
		n, err := strconv.Atoi(strings.TrimSpace(line[:i]))
		if err != nil {
			return nil, fmt.Errorf("bad customer id %q", line[:i])
		}
		cid = n
		body = line[i+1:]
	}
	cs, err := seq.ParseCustomerSeq(cid, body)
	if err != nil {
		return nil, err
	}
	if cs.Len() == 0 {
		return nil, fmt.Errorf("empty sequence")
	}
	return cs, nil
}

// parseSPMF parses every sequence on one SPMF line. The format terminates
// each sequence with -2, and a line may carry several sequences (SPMF
// itself accepts that); each gets the next implicit customer id starting
// at cid. Tokens after the last -2 that do not form a terminated sequence
// are an error, never silently dropped.
func parseSPMF(line string, cid int) ([]*seq.CustomerSeq, error) {
	fields := strings.Fields(line)
	var out []*seq.CustomerSeq
	var sets []seq.Itemset
	var cur seq.Itemset
	for _, f := range fields {
		n, err := strconv.Atoi(f)
		if err != nil {
			return nil, fmt.Errorf("bad token %q", f)
		}
		switch {
		case n == -2:
			if len(cur) > 0 {
				sets = append(sets, cur)
			}
			if len(sets) == 0 {
				return nil, fmt.Errorf("empty sequence")
			}
			out = append(out, seq.NewCustomerSeq(cid, sets...))
			cid++
			sets, cur = nil, nil
		case n == -1:
			if len(cur) == 0 {
				return nil, fmt.Errorf("empty itemset before -1")
			}
			sets = append(sets, cur)
			cur = nil
		case n >= 1:
			cur = append(cur, seq.Item(n))
		default:
			return nil, fmt.Errorf("invalid item %d", n)
		}
	}
	if len(cur) > 0 || len(sets) > 0 {
		return nil, fmt.Errorf("sequence not terminated by -2")
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("empty sequence")
	}
	return out, nil
}

// Write renders db to w in the given format (Auto means Native).
func Write(w io.Writer, db mining.Database, f Format) error {
	bw := bufio.NewWriter(w)
	var num [24]byte
	for _, cs := range db {
		switch f {
		case SPMF:
			for t := 0; t < cs.NTrans(); t++ {
				for _, it := range cs.Transaction(t) {
					bw.Write(append(strconv.AppendInt(num[:0], int64(it), 10), ' '))
				}
				bw.WriteString("-1 ")
			}
			bw.WriteString("-2\n")
		default:
			bw.Write(append(strconv.AppendInt(num[:0], int64(cs.CID), 10), ':'))
			for t := 0; t < cs.NTrans(); t++ {
				bw.WriteByte('(')
				for i, it := range cs.Transaction(t) {
					if i > 0 {
						bw.WriteByte(' ')
					}
					bw.Write(strconv.AppendInt(num[:0], int64(it), 10))
				}
				bw.WriteByte(')')
			}
			bw.WriteByte('\n')
		}
	}
	return bw.Flush()
}

// ReadFile loads a database from a file with auto-detection.
func ReadFile(path string) (mining.Database, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return Read(f, Auto)
}

// WriteFile saves a database to a file.
func WriteFile(path string, db mining.Database, f Format) error {
	out, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := Write(out, db, f); err != nil {
		out.Close()
		return err
	}
	return out.Close()
}

// Stats summarizes a database.
type Stats struct {
	Customers     int
	Transactions  int
	Items         int // total item occurrences
	DistinctItems int
	MaxItem       seq.Item
	AvgTrans      float64 // transactions per customer
	AvgItems      float64 // items per transaction
	MaxLen        int     // longest customer sequence (items)
}

// Describe computes summary statistics.
func Describe(db mining.Database) Stats {
	var s Stats
	s.Customers = len(db)
	distinct := map[seq.Item]bool{}
	for _, cs := range db {
		s.Transactions += cs.NTrans()
		s.Items += cs.Len()
		if cs.Len() > s.MaxLen {
			s.MaxLen = cs.Len()
		}
		for _, it := range cs.Items() {
			distinct[it] = true
			if it > s.MaxItem {
				s.MaxItem = it
			}
		}
	}
	s.DistinctItems = len(distinct)
	if s.Customers > 0 {
		s.AvgTrans = float64(s.Transactions) / float64(s.Customers)
	}
	if s.Transactions > 0 {
		s.AvgItems = float64(s.Items) / float64(s.Transactions)
	}
	return s
}

// String renders the stats as a one-line summary.
func (s Stats) String() string {
	return fmt.Sprintf("%d customers, %d transactions, %d items (%d distinct), avg %.2f trans/cust, %.2f items/trans",
		s.Customers, s.Transactions, s.Items, s.DistinctItems, s.AvgTrans, s.AvgItems)
}
