// Timeseries reproduces the paper's Scenario 2 (DComp, §1): operational
// documents stored by document id but expired by creation timestamp — the
// sort key and the delete key are different attributes.
//
// The paper's engineers ("they may keep data for 30 days, and daily delete
// data that turned 31-days old") would need a full-tree compaction per day on
// a classical LSM engine. With KiWi's delete tiles the daily purge becomes
// page drops guided by in-memory delete fences, and this example counts
// exactly how many pages were dropped without any I/O.
package main

import (
	"fmt"
	"log"
	"time"

	"lethe"
)

const (
	retentionDays = 7
	docsPerDay    = 400
)

func docKey(id int) []byte { return []byte(fmt.Sprintf("doc:%08x", id*2654435761%(1<<30))) }

func day(d int) lethe.DeleteKey { return lethe.DeleteKey(d) }

func main() {
	clock := lethe.NewManualClock(time.Unix(1_700_000_000, 0))
	db, err := lethe.Open(lethe.Options{
		InMemory:    true,
		Clock:       clock,
		TilePages:   8, // delete tiles of 8 pages (tune with OptimalTileSize)
		BufferBytes: 8 << 10,
		PageSize:    1 << 10,
		FilePages:   32,
		DisableWAL:  true,
	})
	if err != nil {
		log.Fatal(err)
	}
	defer db.Close()

	// Simulate three weeks of operation with a rolling 7-day retention.
	var totalDropped, totalFull, totalPartial int
	nextID := 0
	for d := 0; d < 21; d++ {
		// Ingest today's documents: sort key is the document id (what the
		// application reads by), delete key is the creation day.
		for i := 0; i < docsPerDay; i++ {
			payload := []byte(fmt.Sprintf(`{"day":%d,"seq":%d}`, d, i))
			if err := db.Put(docKey(nextID), day(d), payload); err != nil {
				log.Fatal(err)
			}
			nextID++
		}
		clock.Advance(24 * time.Hour)

		// Daily retention purge: drop everything older than 7 days. No
		// full-tree compaction — just page drops.
		if d >= retentionDays {
			cutoff := d - retentionDays + 1
			before := db.Stats().BytesOnDisk
			st, err := db.SecondaryRangeDelete(0, day(cutoff))
			if err != nil {
				log.Fatal(err)
			}
			totalDropped += st.EntriesDropped
			totalFull += st.FullPageDrops
			totalPartial += st.PartialPageDrops
			fmt.Printf("day %2d: purged %5d docs (full page drops: %3d, partial: %3d, fences skipped: %d pages; %d files retired, %d -> %d bytes on disk)\n",
				d, st.EntriesDropped, st.FullPageDrops, st.PartialPageDrops, st.PagesUntouched,
				st.FilesRetired, before, db.Stats().BytesOnDisk)
		}
	}

	// Verify the retention invariant via a timestamp-indexed scan (also
	// served by the delete fences).
	live, err := db.SecondaryRangeScan(0, day(999))
	if err != nil {
		log.Fatal(err)
	}
	oldest := lethe.DeleteKey(1 << 62)
	for _, item := range live {
		if item.DKey < oldest {
			oldest = item.DKey
		}
	}
	fmt.Printf("\nafter 21 days: %d live docs, oldest day=%d (retention %d days)\n",
		len(live), oldest, retentionDays)
	fmt.Printf("purged %d docs total; %d pages dropped with zero I/O, %d edge pages rewritten\n",
		totalDropped, totalFull, totalPartial)
	engineStats := db.Stats()
	if engineStats.FullTreeCompactions != 0 {
		log.Fatal("a full-tree compaction happened — KiWi should have prevented this")
	}
	fmt.Println("full-tree compactions: 0 ✓")
}
