package main

import (
	"fmt"
	"syscall"
)

// fsMagic names the filesystems a data directory is likely to sit on, by
// statfs magic number.
var fsMagic = map[int64]string{
	0xEF53:     "ext4",
	0x58465342: "xfs",
	0x9123683E: "btrfs",
	0x01021994: "tmpfs",
	0x794c7630: "overlayfs",
	0x6a656a63: "fakeowner",
	0x65735546: "fuse",
	0x2FC12FC1: "zfs",
}

// statfsName names the filesystem holding path.
func statfsName(path string) string {
	var st syscall.Statfs_t
	if err := syscall.Statfs(path, &st); err != nil {
		return "unknown"
	}
	if name, ok := fsMagic[int64(st.Type)]; ok {
		return name
	}
	return fmt.Sprintf("0x%x", st.Type)
}
