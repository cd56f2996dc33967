// Code generated by rtlgen. DO NOT EDIT.
//
// Regenerate with: go generate ./internal/rtl/native

package native

import "repro/internal/rtl"

func run_stencil(vals []uint64, mems [][]uint64, max uint64) uint64 {
	_ = vals[86]
	m0 := mems[0]
	m1 := mems[1]
	v4 := vals[4]
	v8 := vals[8]
	v15 := vals[15]
	v24 := vals[24]
	v83 := vals[83]
	var n uint64
	for ; n < max; n++ {
		var v1 uint64
		if addr := uint64(0x0); addr < uint64(len(m0)) {
			v1 = m0[addr] & 0x7f
		}
		var v3 uint64
		if addr := uint64(0x1); addr < uint64(len(m0)) {
			v3 = m0[addr] & 0x7f
		}
		v6 := (v4 + 0x2) & 0x7f
		var v7 uint64
		if addr := uint64(v6); addr < uint64(len(m0)) {
			v7 = m0[addr] & 0xffff
		}
		var v16 uint64
		if v15 != 0x0 {
			v16 = 1
		}
		v18 := (v15 - 0x1) & 0x7
		var v19 uint64
		if v16 != 0 {
			v19 = v18
		} else {
			v19 = v15
		}
		var v22 uint64
		if v15 == 0x0 {
			v22 = 1
		}
		var v25 uint64
		if v24 != 0x0 {
			v25 = 1
		}
		v26 := (v24 - 0x1) & 0x7f
		var v27 uint64
		if v25 != 0 {
			v27 = v26
		} else {
			v27 = v24
		}
		var v29 uint64
		if v24 == 0x0 {
			v29 = 1
		}
		v30 := (v4 + 0x1) & 0x7f
		var v31 uint64
		if v1 <= v30 {
			v31 = 1
		}
		var v33 uint64
		if v31 != 0 {
			v33 = 0x4
		} else {
			v33 = 0x1
		}
		v42 := (v7 * v7) & 0xffffffff
		v44 := (v42 * 0x1) & 0xffffffff
		v45 := (v42 >> 1)
		v47 := (v24 | 0x0)
		v48 := (v45 ^ v47)
		v50 := (v48 * 0x2) & 0xffffffff
		v51 := (v44 + v50) & 0xffffffff
		v52 := (v48 >> 1)
		v53 := (v52 ^ v47)
		v54 := (v53 * 0x1) & 0xffffffff
		v55 := (v51 + v54) & 0xffffffff
		v56 := (v53 >> 1)
		v57 := (v56 ^ v47)
		v58 := (v57 * 0x2) & 0xffffffff
		v59 := (v55 + v58) & 0xffffffff
		v60 := (v57 >> 1)
		v61 := (v60 ^ v47)
		v63 := (v61 * 0x4) & 0xffffffff
		v64 := (v59 + v63) & 0xffffffff
		v65 := (v61 >> 1)
		v66 := (v65 ^ v47)
		v67 := (v66 * 0x2) & 0xffffffff
		v68 := (v64 + v67) & 0xffffffff
		v69 := (v66 >> 1)
		v70 := (v69 ^ v47)
		v71 := (v70 * 0x1) & 0xffffffff
		v72 := (v68 + v71) & 0xffffffff
		v73 := (v70 >> 1)
		v74 := (v73 ^ v47)
		v75 := (v74 * 0x2) & 0xffffffff
		v76 := (v72 + v75) & 0xffffffff
		v77 := (v74 >> 1)
		v78 := (v77 ^ v47)
		v79 := (v78 * 0x1) & 0xffffffff
		v80 := (v76 + v79) & 0xffffffff
		v84 := (v83 + v80) & 0xffffffff
		var s12, s20, s28, s40, s41, s85, s86 uint64
		switch v8 {
		case 0x0:
			v23 := 0x0 & v22
			var v28 uint64
			if v23 != 0 {
				v28 = v3
			} else {
				v28 = v27
			}
			v41 := v4
			v85 := v83
			s86 = 0x0
			s41 = v41
			s40 = 0x1
			s20 = 0x2
			s28 = v28
			s85 = v85
			s12 = 0x0
		case 0x1:
			v20 := v19
			v23 := 0x1 & v22
			var v28 uint64
			if v23 != 0 {
				v28 = v3
			} else {
				v28 = v27
			}
			var v38 uint64
			if v22 != 0 {
				v38 = 0x2
			} else {
				v38 = 0x1
			}
			v39 := v38
			v40 := v39
			v41 := v4
			v85 := v83
			s86 = 0x0
			s41 = v41
			s40 = v40
			s20 = v20
			s28 = v28
			s85 = v85
			s12 = 0x0
		case 0x2:
			v20 := v19
			v23 := 0x0 & v22
			var v28 uint64
			if v23 != 0 {
				v28 = v3
			} else {
				v28 = v27
			}
			var v35 uint64
			if v29 != 0 {
				v35 = 0x3
			} else {
				v35 = 0x2
			}
			v37 := v35
			v39 := v37
			v40 := v39
			v41 := v4
			v85 := v84
			s86 = 0x0
			s41 = v41
			s40 = v40
			s20 = v20
			s28 = v28
			s85 = v85
			s12 = 0x0
		case 0x3:
			v23 := 0x0 & v22
			var v28 uint64
			if v23 != 0 {
				v28 = v3
			} else {
				v28 = v27
			}
			v34 := v33
			v37 := v34
			v39 := v37
			v40 := v39
			v41 := v30
			v85 := v83
			s86 = 0x0
			s41 = v41
			s40 = v40
			s20 = 0x2
			s28 = v28
			s85 = v85
			s12 = 0x1
		case 0x4:
			v20 := v19
			v23 := 0x0 & v22
			var v28 uint64
			if v23 != 0 {
				v28 = v3
			} else {
				v28 = v27
			}
			v41 := v4
			v85 := v83
			s86 = 0x1
			s41 = v41
			s40 = 0x4
			s20 = v20
			s28 = v28
			s85 = v85
			s12 = 0x0
		default:
			var v10 uint64
			if v8 == 0x0 {
				v10 = 1
			}
			var v12 uint64
			if v8 == 0x3 {
				v12 = 1
			}
			v13 := (v10 | v12)
			var v20 uint64
			if v13 != 0 {
				v20 = 0x2
			} else {
				v20 = v19
			}
			var v21 uint64
			if v8 == 0x1 {
				v21 = 1
			}
			v23 := v21 & v22
			var v28 uint64
			if v23 != 0 {
				v28 = v3
			} else {
				v28 = v27
			}
			var v34 uint64
			if v12 != 0 {
				v34 = v33
			} else {
				v34 = v8
			}
			var v35 uint64
			if v29 != 0 {
				v35 = 0x3
			} else {
				v35 = v8
			}
			var v36 uint64
			if v8 == 0x2 {
				v36 = 1
			}
			var v37 uint64
			if v36 != 0 {
				v37 = v35
			} else {
				v37 = v34
			}
			var v38 uint64
			if v22 != 0 {
				v38 = 0x2
			} else {
				v38 = v8
			}
			var v39 uint64
			if v21 != 0 {
				v39 = v38
			} else {
				v39 = v37
			}
			var v40 uint64
			if v10 != 0 {
				v40 = 0x1
			} else {
				v40 = v39
			}
			var v41 uint64
			if v12 != 0 {
				v41 = v30
			} else {
				v41 = v4
			}
			var v85 uint64
			if v36 != 0 {
				v85 = v84
			} else {
				v85 = v83
			}
			var v86 uint64
			if v8 == 0x4 {
				v86 = 1
			}
			s86 = v86
			s41 = v41
			s40 = v40
			s20 = v20
			s28 = v28
			s85 = v85
			s12 = v12
		}
		if s86 != 0 {
			break
		}
		if s12 != 0 {
			if addr := uint64(v4); addr < uint64(len(m1)) {
				m1[addr] = v83
			}
		}
		v4 = s41
		v8 = s40
		v15 = s20
		v24 = s28
		v83 = s85
	}
	vals[4] = v4
	vals[8] = v8
	vals[15] = v15
	vals[24] = v24
	vals[83] = v83
	return n
}

func run_stencil_ins(vals []uint64, mems [][]uint64, max uint64) uint64 {
	_ = vals[129]
	m0 := mems[0]
	m1 := mems[1]
	v4 := vals[4]
	v8 := vals[8]
	v15 := vals[15]
	v24 := vals[24]
	v83 := vals[83]
	v90 := vals[90]
	v95 := vals[95]
	v100 := vals[100]
	v105 := vals[105]
	v109 := vals[109]
	v112 := vals[112]
	v115 := vals[115]
	v118 := vals[118]
	v121 := vals[121]
	v124 := vals[124]
	v127 := vals[127]
	var n uint64
	for ; n < max; n++ {
		var v1 uint64
		if addr := uint64(0x0); addr < uint64(len(m0)) {
			v1 = m0[addr] & 0x7f
		}
		var v3 uint64
		if addr := uint64(0x1); addr < uint64(len(m0)) {
			v3 = m0[addr] & 0x7f
		}
		v6 := (v4 + 0x2) & 0x7f
		var v7 uint64
		if addr := uint64(v6); addr < uint64(len(m0)) {
			v7 = m0[addr] & 0xffff
		}
		var v16 uint64
		if v15 != 0x0 {
			v16 = 1
		}
		v18 := (v15 - 0x1) & 0x7
		var v19 uint64
		if v16 != 0 {
			v19 = v18
		} else {
			v19 = v15
		}
		var v22 uint64
		if v15 == 0x0 {
			v22 = 1
		}
		var v25 uint64
		if v24 != 0x0 {
			v25 = 1
		}
		v26 := (v24 - 0x1) & 0x7f
		var v27 uint64
		if v25 != 0 {
			v27 = v26
		} else {
			v27 = v24
		}
		var v29 uint64
		if v24 == 0x0 {
			v29 = 1
		}
		v30 := (v4 + 0x1) & 0x7f
		var v31 uint64
		if v1 <= v30 {
			v31 = 1
		}
		var v33 uint64
		if v31 != 0 {
			v33 = 0x4
		} else {
			v33 = 0x1
		}
		v42 := (v7 * v7) & 0xffffffff
		v44 := (v42 * 0x1) & 0xffffffff
		v45 := (v42 >> 1)
		v47 := (v24 | 0x0)
		v48 := (v45 ^ v47)
		v50 := (v48 * 0x2) & 0xffffffff
		v51 := (v44 + v50) & 0xffffffff
		v52 := (v48 >> 1)
		v53 := (v52 ^ v47)
		v54 := (v53 * 0x1) & 0xffffffff
		v55 := (v51 + v54) & 0xffffffff
		v56 := (v53 >> 1)
		v57 := (v56 ^ v47)
		v58 := (v57 * 0x2) & 0xffffffff
		v59 := (v55 + v58) & 0xffffffff
		v60 := (v57 >> 1)
		v61 := (v60 ^ v47)
		v63 := (v61 * 0x4) & 0xffffffff
		v64 := (v59 + v63) & 0xffffffff
		v65 := (v61 >> 1)
		v66 := (v65 ^ v47)
		v67 := (v66 * 0x2) & 0xffffffff
		v68 := (v64 + v67) & 0xffffffff
		v69 := (v66 >> 1)
		v70 := (v69 ^ v47)
		v71 := (v70 * 0x1) & 0xffffffff
		v72 := (v68 + v71) & 0xffffffff
		v73 := (v70 >> 1)
		v74 := (v73 ^ v47)
		v75 := (v74 * 0x2) & 0xffffffff
		v76 := (v72 + v75) & 0xffffffff
		v77 := (v74 >> 1)
		v78 := (v77 ^ v47)
		v79 := (v78 * 0x1) & 0xffffffff
		v80 := (v76 + v79) & 0xffffffff
		v84 := (v83 + v80) & 0xffffffff
		v91 := (v90 + 0x1) & 0xffffff
		v96 := (v95 + 0x1) & 0xffffff
		v101 := (v100 + 0x1) & 0xffffff
		v106 := (v105 + 0x1) & 0xffffff
		v110 := (v109 + 0x1) & 0xffffff
		v113 := (v112 + 0x1) & 0xffffff
		v116 := (v115 + 0x2) & 0xffffff
		v119 := (v118 + v15) & 0xffffff
		v122 := (v121 + 0x1) & 0xffffff
		v125 := (v124 + v3) & 0xffffff
		v128 := (v127 + v24) & 0xffffff
		var s12, s20, s28, s40, s41, s85, s86, s92, s97, s102, s107, s111, s114, s117, s120, s123, s126, s129 uint64
		switch v8 {
		case 0x0:
			v23 := 0x0 & v22
			var v28 uint64
			if v23 != 0 {
				v28 = v3
			} else {
				v28 = v27
			}
			v41 := v4
			v85 := v83
			v92 := v91
			v97 := v95
			v102 := v100
			v107 := v105
			v111 := v109
			v114 := v113
			v117 := v116
			v120 := v119
			var v123 uint64
			if v23 != 0 {
				v123 = v122
			} else {
				v123 = v121
			}
			var v126 uint64
			if v23 != 0 {
				v126 = v125
			} else {
				v126 = v124
			}
			var v129 uint64
			if v23 != 0 {
				v129 = v128
			} else {
				v129 = v127
			}
			s86 = 0x0
			s41 = v41
			s40 = 0x1
			s20 = 0x2
			s28 = v28
			s85 = v85
			s92 = v92
			s97 = v97
			s102 = v102
			s107 = v107
			s111 = v111
			s114 = v114
			s117 = v117
			s120 = v120
			s123 = v123
			s126 = v126
			s129 = v129
			s12 = 0x0
		case 0x1:
			v20 := v19
			v23 := 0x1 & v22
			var v28 uint64
			if v23 != 0 {
				v28 = v3
			} else {
				v28 = v27
			}
			var v38 uint64
			if v22 != 0 {
				v38 = 0x2
			} else {
				v38 = 0x1
			}
			v39 := v38
			v40 := v39
			v41 := v4
			v85 := v83
			var v87 uint64
			if v40 == 0x1 {
				v87 = 1
			}
			v88 := 0x0 & v87
			var v92 uint64
			if v88 != 0 {
				v92 = v91
			} else {
				v92 = v90
			}
			var v93 uint64
			if v40 == 0x2 {
				v93 = 1
			}
			v94 := 0x1 & v93
			var v97 uint64
			if v94 != 0 {
				v97 = v96
			} else {
				v97 = v95
			}
			var v98 uint64
			if v40 == 0x3 {
				v98 = 1
			}
			v99 := 0x0 & v98
			var v102 uint64
			if v99 != 0 {
				v102 = v101
			} else {
				v102 = v100
			}
			var v103 uint64
			if v40 == 0x4 {
				v103 = 1
			}
			v104 := 0x0 & v103
			var v107 uint64
			if v104 != 0 {
				v107 = v106
			} else {
				v107 = v105
			}
			v108 := 0x0 & v87
			var v111 uint64
			if v108 != 0 {
				v111 = v110
			} else {
				v111 = v109
			}
			v114 := v112
			v117 := v115
			v120 := v118
			var v123 uint64
			if v23 != 0 {
				v123 = v122
			} else {
				v123 = v121
			}
			var v126 uint64
			if v23 != 0 {
				v126 = v125
			} else {
				v126 = v124
			}
			var v129 uint64
			if v23 != 0 {
				v129 = v128
			} else {
				v129 = v127
			}
			s86 = 0x0
			s41 = v41
			s40 = v40
			s20 = v20
			s28 = v28
			s85 = v85
			s92 = v92
			s97 = v97
			s102 = v102
			s107 = v107
			s111 = v111
			s114 = v114
			s117 = v117
			s120 = v120
			s123 = v123
			s126 = v126
			s129 = v129
			s12 = 0x0
		case 0x2:
			v20 := v19
			v23 := 0x0 & v22
			var v28 uint64
			if v23 != 0 {
				v28 = v3
			} else {
				v28 = v27
			}
			var v35 uint64
			if v29 != 0 {
				v35 = 0x3
			} else {
				v35 = 0x2
			}
			v37 := v35
			v39 := v37
			v40 := v39
			v41 := v4
			v85 := v84
			var v87 uint64
			if v40 == 0x1 {
				v87 = 1
			}
			v88 := 0x0 & v87
			var v92 uint64
			if v88 != 0 {
				v92 = v91
			} else {
				v92 = v90
			}
			var v93 uint64
			if v40 == 0x2 {
				v93 = 1
			}
			v94 := 0x0 & v93
			var v97 uint64
			if v94 != 0 {
				v97 = v96
			} else {
				v97 = v95
			}
			var v98 uint64
			if v40 == 0x3 {
				v98 = 1
			}
			v99 := 0x1 & v98
			var v102 uint64
			if v99 != 0 {
				v102 = v101
			} else {
				v102 = v100
			}
			var v103 uint64
			if v40 == 0x4 {
				v103 = 1
			}
			v104 := 0x0 & v103
			var v107 uint64
			if v104 != 0 {
				v107 = v106
			} else {
				v107 = v105
			}
			v108 := 0x0 & v87
			var v111 uint64
			if v108 != 0 {
				v111 = v110
			} else {
				v111 = v109
			}
			v114 := v112
			v117 := v115
			v120 := v118
			var v123 uint64
			if v23 != 0 {
				v123 = v122
			} else {
				v123 = v121
			}
			var v126 uint64
			if v23 != 0 {
				v126 = v125
			} else {
				v126 = v124
			}
			var v129 uint64
			if v23 != 0 {
				v129 = v128
			} else {
				v129 = v127
			}
			s86 = 0x0
			s41 = v41
			s40 = v40
			s20 = v20
			s28 = v28
			s85 = v85
			s92 = v92
			s97 = v97
			s102 = v102
			s107 = v107
			s111 = v111
			s114 = v114
			s117 = v117
			s120 = v120
			s123 = v123
			s126 = v126
			s129 = v129
			s12 = 0x0
		case 0x3:
			v23 := 0x0 & v22
			var v28 uint64
			if v23 != 0 {
				v28 = v3
			} else {
				v28 = v27
			}
			v34 := v33
			v37 := v34
			v39 := v37
			v40 := v39
			v41 := v30
			v85 := v83
			var v87 uint64
			if v40 == 0x1 {
				v87 = 1
			}
			v88 := 0x0 & v87
			var v92 uint64
			if v88 != 0 {
				v92 = v91
			} else {
				v92 = v90
			}
			var v93 uint64
			if v40 == 0x2 {
				v93 = 1
			}
			v94 := 0x0 & v93
			var v97 uint64
			if v94 != 0 {
				v97 = v96
			} else {
				v97 = v95
			}
			var v98 uint64
			if v40 == 0x3 {
				v98 = 1
			}
			v99 := 0x0 & v98
			var v102 uint64
			if v99 != 0 {
				v102 = v101
			} else {
				v102 = v100
			}
			var v103 uint64
			if v40 == 0x4 {
				v103 = 1
			}
			v104 := 0x1 & v103
			var v107 uint64
			if v104 != 0 {
				v107 = v106
			} else {
				v107 = v105
			}
			v108 := 0x1 & v87
			var v111 uint64
			if v108 != 0 {
				v111 = v110
			} else {
				v111 = v109
			}
			v114 := v113
			v117 := v116
			v120 := v119
			var v123 uint64
			if v23 != 0 {
				v123 = v122
			} else {
				v123 = v121
			}
			var v126 uint64
			if v23 != 0 {
				v126 = v125
			} else {
				v126 = v124
			}
			var v129 uint64
			if v23 != 0 {
				v129 = v128
			} else {
				v129 = v127
			}
			s86 = 0x0
			s41 = v41
			s40 = v40
			s20 = 0x2
			s28 = v28
			s85 = v85
			s92 = v92
			s97 = v97
			s102 = v102
			s107 = v107
			s111 = v111
			s114 = v114
			s117 = v117
			s120 = v120
			s123 = v123
			s126 = v126
			s129 = v129
			s12 = 0x1
		case 0x4:
			v20 := v19
			v23 := 0x0 & v22
			var v28 uint64
			if v23 != 0 {
				v28 = v3
			} else {
				v28 = v27
			}
			v41 := v4
			v85 := v83
			v92 := v90
			v97 := v95
			v102 := v100
			v107 := v105
			v111 := v109
			v114 := v112
			v117 := v115
			v120 := v118
			var v123 uint64
			if v23 != 0 {
				v123 = v122
			} else {
				v123 = v121
			}
			var v126 uint64
			if v23 != 0 {
				v126 = v125
			} else {
				v126 = v124
			}
			var v129 uint64
			if v23 != 0 {
				v129 = v128
			} else {
				v129 = v127
			}
			s86 = 0x1
			s41 = v41
			s40 = 0x4
			s20 = v20
			s28 = v28
			s85 = v85
			s92 = v92
			s97 = v97
			s102 = v102
			s107 = v107
			s111 = v111
			s114 = v114
			s117 = v117
			s120 = v120
			s123 = v123
			s126 = v126
			s129 = v129
			s12 = 0x0
		default:
			var v10 uint64
			if v8 == 0x0 {
				v10 = 1
			}
			var v12 uint64
			if v8 == 0x3 {
				v12 = 1
			}
			v13 := (v10 | v12)
			var v20 uint64
			if v13 != 0 {
				v20 = 0x2
			} else {
				v20 = v19
			}
			var v21 uint64
			if v8 == 0x1 {
				v21 = 1
			}
			v23 := v21 & v22
			var v28 uint64
			if v23 != 0 {
				v28 = v3
			} else {
				v28 = v27
			}
			var v34 uint64
			if v12 != 0 {
				v34 = v33
			} else {
				v34 = v8
			}
			var v35 uint64
			if v29 != 0 {
				v35 = 0x3
			} else {
				v35 = v8
			}
			var v36 uint64
			if v8 == 0x2 {
				v36 = 1
			}
			var v37 uint64
			if v36 != 0 {
				v37 = v35
			} else {
				v37 = v34
			}
			var v38 uint64
			if v22 != 0 {
				v38 = 0x2
			} else {
				v38 = v8
			}
			var v39 uint64
			if v21 != 0 {
				v39 = v38
			} else {
				v39 = v37
			}
			var v40 uint64
			if v10 != 0 {
				v40 = 0x1
			} else {
				v40 = v39
			}
			var v41 uint64
			if v12 != 0 {
				v41 = v30
			} else {
				v41 = v4
			}
			var v85 uint64
			if v36 != 0 {
				v85 = v84
			} else {
				v85 = v83
			}
			var v86 uint64
			if v8 == 0x4 {
				v86 = 1
			}
			var v87 uint64
			if v40 == 0x1 {
				v87 = 1
			}
			v88 := v10 & v87
			var v92 uint64
			if v88 != 0 {
				v92 = v91
			} else {
				v92 = v90
			}
			var v93 uint64
			if v40 == 0x2 {
				v93 = 1
			}
			v94 := v21 & v93
			var v97 uint64
			if v94 != 0 {
				v97 = v96
			} else {
				v97 = v95
			}
			var v98 uint64
			if v40 == 0x3 {
				v98 = 1
			}
			v99 := v36 & v98
			var v102 uint64
			if v99 != 0 {
				v102 = v101
			} else {
				v102 = v100
			}
			var v103 uint64
			if v40 == 0x4 {
				v103 = 1
			}
			v104 := v12 & v103
			var v107 uint64
			if v104 != 0 {
				v107 = v106
			} else {
				v107 = v105
			}
			v108 := v12 & v87
			var v111 uint64
			if v108 != 0 {
				v111 = v110
			} else {
				v111 = v109
			}
			var v114 uint64
			if v13 != 0 {
				v114 = v113
			} else {
				v114 = v112
			}
			var v117 uint64
			if v13 != 0 {
				v117 = v116
			} else {
				v117 = v115
			}
			var v120 uint64
			if v13 != 0 {
				v120 = v119
			} else {
				v120 = v118
			}
			var v123 uint64
			if v23 != 0 {
				v123 = v122
			} else {
				v123 = v121
			}
			var v126 uint64
			if v23 != 0 {
				v126 = v125
			} else {
				v126 = v124
			}
			var v129 uint64
			if v23 != 0 {
				v129 = v128
			} else {
				v129 = v127
			}
			s86 = v86
			s41 = v41
			s40 = v40
			s20 = v20
			s28 = v28
			s85 = v85
			s92 = v92
			s97 = v97
			s102 = v102
			s107 = v107
			s111 = v111
			s114 = v114
			s117 = v117
			s120 = v120
			s123 = v123
			s126 = v126
			s129 = v129
			s12 = v12
		}
		if s86 != 0 {
			break
		}
		if s12 != 0 {
			if addr := uint64(v4); addr < uint64(len(m1)) {
				m1[addr] = v83
			}
		}
		v4 = s41
		v8 = s40
		v15 = s20
		v24 = s28
		v83 = s85
		v90 = s92
		v95 = s97
		v100 = s102
		v105 = s107
		v109 = s111
		v112 = s114
		v115 = s117
		v118 = s120
		v121 = s123
		v124 = s126
		v127 = s129
	}
	vals[4] = v4
	vals[8] = v8
	vals[15] = v15
	vals[24] = v24
	vals[83] = v83
	vals[90] = v90
	vals[95] = v95
	vals[100] = v100
	vals[105] = v105
	vals[109] = v109
	vals[112] = v112
	vals[115] = v115
	vals[118] = v118
	vals[121] = v121
	vals[124] = v124
	vals[127] = v127
	return n
}

func run_stencil_pruned(vals []uint64, mems [][]uint64, max uint64) uint64 {
	_ = vals[122]
	m0 := mems[0]
	m1 := mems[1]
	v0 := vals[0]
	v1 := vals[1]
	v11 := vals[11]
	v16 := vals[16]
	v39 := vals[39]
	v79 := vals[79]
	v85 := vals[85]
	v90 := vals[90]
	v95 := vals[95]
	v100 := vals[100]
	v104 := vals[104]
	v107 := vals[107]
	v110 := vals[110]
	v113 := vals[113]
	v116 := vals[116]
	v119 := vals[119]
	var n uint64
	for ; n < max; n++ {
		v5 := (v0 + 0x1) & 0x7f
		var v12 uint64
		if v11 == 0x0 {
			v12 = 1
		}
		var v18 uint64
		if v16 == 0x0 {
			v18 = 1
		}
		var v20 uint64
		if addr := uint64(0x0); addr < uint64(len(m0)) {
			v20 = m0[addr] & 0x7f
		}
		var v21 uint64
		if v20 <= v5 {
			v21 = 1
		}
		var v23 uint64
		if v21 != 0 {
			v23 = 0x4
		} else {
			v23 = 0x1
		}
		var v29 uint64
		if v11 != 0x0 {
			v29 = 1
		}
		v30 := (v11 - 0x1) & 0x7
		var v31 uint64
		if v29 != 0 {
			v31 = v30
		} else {
			v31 = v11
		}
		var v34 uint64
		if addr := uint64(0x1); addr < uint64(len(m0)) {
			v34 = m0[addr] & 0x7f
		}
		var v35 uint64
		if v16 != 0x0 {
			v35 = 1
		}
		v36 := (v16 - 0x1) & 0x7f
		var v37 uint64
		if v35 != 0 {
			v37 = v36
		} else {
			v37 = v16
		}
		v41 := (v0 + 0x2) & 0x7f
		var v42 uint64
		if addr := uint64(v41); addr < uint64(len(m0)) {
			v42 = m0[addr] & 0xffff
		}
		v43 := (v42 * v42) & 0xffffffff
		v44 := (v43 >> 1)
		v46 := (v16 | 0x0)
		v47 := (v44 ^ v46)
		v49 := (v47 * 0x2) & 0xffffffff
		v50 := (v43 + v49) & 0xffffffff
		v51 := (v47 >> 1)
		v52 := (v51 ^ v46)
		v53 := (v50 + v52) & 0xffffffff
		v54 := (v52 >> 1)
		v55 := (v54 ^ v46)
		v56 := (v55 * 0x2) & 0xffffffff
		v57 := (v53 + v56) & 0xffffffff
		v58 := (v55 >> 1)
		v59 := (v58 ^ v46)
		v61 := (v59 * 0x4) & 0xffffffff
		v62 := (v57 + v61) & 0xffffffff
		v63 := (v59 >> 1)
		v64 := (v63 ^ v46)
		v65 := (v64 * 0x2) & 0xffffffff
		v66 := (v62 + v65) & 0xffffffff
		v67 := (v64 >> 1)
		v68 := (v67 ^ v46)
		v69 := (v66 + v68) & 0xffffffff
		v70 := (v68 >> 1)
		v71 := (v70 ^ v46)
		v72 := (v71 * 0x2) & 0xffffffff
		v73 := (v69 + v72) & 0xffffffff
		v74 := (v71 >> 1)
		v75 := (v74 ^ v46)
		v76 := (v73 + v75) & 0xffffffff
		v77 := (v39 + v76) & 0xffffffff
		v83 := (v79 + 0x1) & 0xffffff
		v88 := (v85 + 0x1) & 0xffffff
		v93 := (v90 + 0x1) & 0xffffff
		v98 := (v95 + 0x1) & 0xffffff
		v102 := (v100 + 0x1) & 0xffffff
		v105 := (v104 + 0x1) & 0xffffff
		v108 := (v107 + 0x2) & 0xffffff
		v111 := (v110 + v11) & 0xffffff
		v114 := (v113 + 0x1) & 0xffffff
		v117 := (v116 + v34) & 0xffffff
		v120 := (v119 + v16) & 0xffffff
		var s3, s6, s27, s32, s38, s78, s84, s89, s94, s99, s103, s106, s109, s112, s115, s118, s121, s122 uint64
		switch v1 {
		case 0x0:
			v6 := v0
			v33 := 0x0 & v12
			var v38 uint64
			if v33 != 0 {
				v38 = v34
			} else {
				v38 = v37
			}
			v78 := v39
			v84 := v83
			v89 := v85
			v94 := v90
			v99 := v95
			v103 := v100
			v106 := v105
			v109 := v108
			v112 := v111
			var v115 uint64
			if v33 != 0 {
				v115 = v114
			} else {
				v115 = v113
			}
			var v118 uint64
			if v33 != 0 {
				v118 = v117
			} else {
				v118 = v116
			}
			var v121 uint64
			if v33 != 0 {
				v121 = v120
			} else {
				v121 = v119
			}
			s122 = 0x0
			s6 = v6
			s27 = 0x1
			s32 = 0x2
			s38 = v38
			s78 = v78
			s84 = v84
			s89 = v89
			s94 = v94
			s99 = v99
			s103 = v103
			s106 = v106
			s109 = v109
			s112 = v112
			s115 = v115
			s118 = v118
			s121 = v121
			s3 = 0x0
		case 0x1:
			v6 := v0
			var v14 uint64
			if v12 != 0 {
				v14 = 0x2
			} else {
				v14 = 0x1
			}
			v26 := v14
			v27 := v26
			v32 := v31
			v33 := 0x1 & v12
			var v38 uint64
			if v33 != 0 {
				v38 = v34
			} else {
				v38 = v37
			}
			v78 := v39
			var v80 uint64
			if v27 == 0x1 {
				v80 = 1
			}
			v81 := 0x0 & v80
			var v84 uint64
			if v81 != 0 {
				v84 = v83
			} else {
				v84 = v79
			}
			var v86 uint64
			if v27 == 0x2 {
				v86 = 1
			}
			v87 := 0x1 & v86
			var v89 uint64
			if v87 != 0 {
				v89 = v88
			} else {
				v89 = v85
			}
			var v91 uint64
			if v27 == 0x3 {
				v91 = 1
			}
			v92 := 0x0 & v91
			var v94 uint64
			if v92 != 0 {
				v94 = v93
			} else {
				v94 = v90
			}
			var v96 uint64
			if v27 == 0x4 {
				v96 = 1
			}
			v97 := 0x0 & v96
			var v99 uint64
			if v97 != 0 {
				v99 = v98
			} else {
				v99 = v95
			}
			v101 := 0x0 & v80
			var v103 uint64
			if v101 != 0 {
				v103 = v102
			} else {
				v103 = v100
			}
			v106 := v104
			v109 := v107
			v112 := v110
			var v115 uint64
			if v33 != 0 {
				v115 = v114
			} else {
				v115 = v113
			}
			var v118 uint64
			if v33 != 0 {
				v118 = v117
			} else {
				v118 = v116
			}
			var v121 uint64
			if v33 != 0 {
				v121 = v120
			} else {
				v121 = v119
			}
			s122 = 0x0
			s6 = v6
			s27 = v27
			s32 = v32
			s38 = v38
			s78 = v78
			s84 = v84
			s89 = v89
			s94 = v94
			s99 = v99
			s103 = v103
			s106 = v106
			s109 = v109
			s112 = v112
			s115 = v115
			s118 = v118
			s121 = v121
			s3 = 0x0
		case 0x2:
			v6 := v0
			var v19 uint64
			if v18 != 0 {
				v19 = 0x3
			} else {
				v19 = 0x2
			}
			v25 := v19
			v26 := v25
			v27 := v26
			v32 := v31
			v33 := 0x0 & v12
			var v38 uint64
			if v33 != 0 {
				v38 = v34
			} else {
				v38 = v37
			}
			v78 := v77
			var v80 uint64
			if v27 == 0x1 {
				v80 = 1
			}
			v81 := 0x0 & v80
			var v84 uint64
			if v81 != 0 {
				v84 = v83
			} else {
				v84 = v79
			}
			var v86 uint64
			if v27 == 0x2 {
				v86 = 1
			}
			v87 := 0x0 & v86
			var v89 uint64
			if v87 != 0 {
				v89 = v88
			} else {
				v89 = v85
			}
			var v91 uint64
			if v27 == 0x3 {
				v91 = 1
			}
			v92 := 0x1 & v91
			var v94 uint64
			if v92 != 0 {
				v94 = v93
			} else {
				v94 = v90
			}
			var v96 uint64
			if v27 == 0x4 {
				v96 = 1
			}
			v97 := 0x0 & v96
			var v99 uint64
			if v97 != 0 {
				v99 = v98
			} else {
				v99 = v95
			}
			v101 := 0x0 & v80
			var v103 uint64
			if v101 != 0 {
				v103 = v102
			} else {
				v103 = v100
			}
			v106 := v104
			v109 := v107
			v112 := v110
			var v115 uint64
			if v33 != 0 {
				v115 = v114
			} else {
				v115 = v113
			}
			var v118 uint64
			if v33 != 0 {
				v118 = v117
			} else {
				v118 = v116
			}
			var v121 uint64
			if v33 != 0 {
				v121 = v120
			} else {
				v121 = v119
			}
			s122 = 0x0
			s6 = v6
			s27 = v27
			s32 = v32
			s38 = v38
			s78 = v78
			s84 = v84
			s89 = v89
			s94 = v94
			s99 = v99
			s103 = v103
			s106 = v106
			s109 = v109
			s112 = v112
			s115 = v115
			s118 = v118
			s121 = v121
			s3 = 0x0
		case 0x3:
			v6 := v5
			v24 := v23
			v25 := v24
			v26 := v25
			v27 := v26
			v33 := 0x0 & v12
			var v38 uint64
			if v33 != 0 {
				v38 = v34
			} else {
				v38 = v37
			}
			v78 := v39
			var v80 uint64
			if v27 == 0x1 {
				v80 = 1
			}
			v81 := 0x0 & v80
			var v84 uint64
			if v81 != 0 {
				v84 = v83
			} else {
				v84 = v79
			}
			var v86 uint64
			if v27 == 0x2 {
				v86 = 1
			}
			v87 := 0x0 & v86
			var v89 uint64
			if v87 != 0 {
				v89 = v88
			} else {
				v89 = v85
			}
			var v91 uint64
			if v27 == 0x3 {
				v91 = 1
			}
			v92 := 0x0 & v91
			var v94 uint64
			if v92 != 0 {
				v94 = v93
			} else {
				v94 = v90
			}
			var v96 uint64
			if v27 == 0x4 {
				v96 = 1
			}
			v97 := 0x1 & v96
			var v99 uint64
			if v97 != 0 {
				v99 = v98
			} else {
				v99 = v95
			}
			v101 := 0x1 & v80
			var v103 uint64
			if v101 != 0 {
				v103 = v102
			} else {
				v103 = v100
			}
			v106 := v105
			v109 := v108
			v112 := v111
			var v115 uint64
			if v33 != 0 {
				v115 = v114
			} else {
				v115 = v113
			}
			var v118 uint64
			if v33 != 0 {
				v118 = v117
			} else {
				v118 = v116
			}
			var v121 uint64
			if v33 != 0 {
				v121 = v120
			} else {
				v121 = v119
			}
			s122 = 0x0
			s6 = v6
			s27 = v27
			s32 = 0x2
			s38 = v38
			s78 = v78
			s84 = v84
			s89 = v89
			s94 = v94
			s99 = v99
			s103 = v103
			s106 = v106
			s109 = v109
			s112 = v112
			s115 = v115
			s118 = v118
			s121 = v121
			s3 = 0x1
		case 0x4:
			v6 := v0
			v32 := v31
			v33 := 0x0 & v12
			var v38 uint64
			if v33 != 0 {
				v38 = v34
			} else {
				v38 = v37
			}
			v78 := v39
			v84 := v79
			v89 := v85
			v94 := v90
			v99 := v95
			v103 := v100
			v106 := v104
			v109 := v107
			v112 := v110
			var v115 uint64
			if v33 != 0 {
				v115 = v114
			} else {
				v115 = v113
			}
			var v118 uint64
			if v33 != 0 {
				v118 = v117
			} else {
				v118 = v116
			}
			var v121 uint64
			if v33 != 0 {
				v121 = v120
			} else {
				v121 = v119
			}
			s122 = 0x1
			s6 = v6
			s27 = 0x4
			s32 = v32
			s38 = v38
			s78 = v78
			s84 = v84
			s89 = v89
			s94 = v94
			s99 = v99
			s103 = v103
			s106 = v106
			s109 = v109
			s112 = v112
			s115 = v115
			s118 = v118
			s121 = v121
			s3 = 0x0
		default:
			var v3 uint64
			if v1 == 0x3 {
				v3 = 1
			}
			var v6 uint64
			if v3 != 0 {
				v6 = v5
			} else {
				v6 = v0
			}
			var v8 uint64
			if v1 == 0x0 {
				v8 = 1
			}
			var v10 uint64
			if v1 == 0x1 {
				v10 = 1
			}
			var v14 uint64
			if v12 != 0 {
				v14 = 0x2
			} else {
				v14 = v1
			}
			var v15 uint64
			if v1 == 0x2 {
				v15 = 1
			}
			var v19 uint64
			if v18 != 0 {
				v19 = 0x3
			} else {
				v19 = v1
			}
			var v24 uint64
			if v3 != 0 {
				v24 = v23
			} else {
				v24 = v1
			}
			var v25 uint64
			if v15 != 0 {
				v25 = v19
			} else {
				v25 = v24
			}
			var v26 uint64
			if v10 != 0 {
				v26 = v14
			} else {
				v26 = v25
			}
			var v27 uint64
			if v8 != 0 {
				v27 = 0x1
			} else {
				v27 = v26
			}
			v28 := (v8 | v3)
			var v32 uint64
			if v28 != 0 {
				v32 = 0x2
			} else {
				v32 = v31
			}
			v33 := v10 & v12
			var v38 uint64
			if v33 != 0 {
				v38 = v34
			} else {
				v38 = v37
			}
			var v78 uint64
			if v15 != 0 {
				v78 = v77
			} else {
				v78 = v39
			}
			var v80 uint64
			if v27 == 0x1 {
				v80 = 1
			}
			v81 := v8 & v80
			var v84 uint64
			if v81 != 0 {
				v84 = v83
			} else {
				v84 = v79
			}
			var v86 uint64
			if v27 == 0x2 {
				v86 = 1
			}
			v87 := v10 & v86
			var v89 uint64
			if v87 != 0 {
				v89 = v88
			} else {
				v89 = v85
			}
			var v91 uint64
			if v27 == 0x3 {
				v91 = 1
			}
			v92 := v15 & v91
			var v94 uint64
			if v92 != 0 {
				v94 = v93
			} else {
				v94 = v90
			}
			var v96 uint64
			if v27 == 0x4 {
				v96 = 1
			}
			v97 := v3 & v96
			var v99 uint64
			if v97 != 0 {
				v99 = v98
			} else {
				v99 = v95
			}
			v101 := v3 & v80
			var v103 uint64
			if v101 != 0 {
				v103 = v102
			} else {
				v103 = v100
			}
			var v106 uint64
			if v28 != 0 {
				v106 = v105
			} else {
				v106 = v104
			}
			var v109 uint64
			if v28 != 0 {
				v109 = v108
			} else {
				v109 = v107
			}
			var v112 uint64
			if v28 != 0 {
				v112 = v111
			} else {
				v112 = v110
			}
			var v115 uint64
			if v33 != 0 {
				v115 = v114
			} else {
				v115 = v113
			}
			var v118 uint64
			if v33 != 0 {
				v118 = v117
			} else {
				v118 = v116
			}
			var v121 uint64
			if v33 != 0 {
				v121 = v120
			} else {
				v121 = v119
			}
			var v122 uint64
			if v1 == 0x4 {
				v122 = 1
			}
			s122 = v122
			s6 = v6
			s27 = v27
			s32 = v32
			s38 = v38
			s78 = v78
			s84 = v84
			s89 = v89
			s94 = v94
			s99 = v99
			s103 = v103
			s106 = v106
			s109 = v109
			s112 = v112
			s115 = v115
			s118 = v118
			s121 = v121
			s3 = v3
		}
		if s122 != 0 {
			break
		}
		if s3 != 0 {
			if addr := uint64(v0); addr < uint64(len(m1)) {
				m1[addr] = v39
			}
		}
		v0 = s6
		v1 = s27
		v11 = s32
		v16 = s38
		v39 = s78
		v79 = s84
		v85 = s89
		v90 = s94
		v95 = s99
		v100 = s103
		v104 = s106
		v107 = s109
		v110 = s112
		v113 = s115
		v116 = s118
		v119 = s121
	}
	vals[0] = v0
	vals[1] = v1
	vals[11] = v11
	vals[16] = v16
	vals[39] = v39
	vals[79] = v79
	vals[85] = v85
	vals[90] = v90
	vals[95] = v95
	vals[100] = v100
	vals[104] = v104
	vals[107] = v107
	vals[110] = v110
	vals[113] = v113
	vals[116] = v116
	vals[119] = v119
	return n
}

func run_stencil_slice_all(vals []uint64, mems [][]uint64, max uint64) uint64 {
	_ = vals[64]
	m0 := mems[0]
	v0 := vals[0]
	v11 := vals[11]
	v22 := vals[22]
	v24 := vals[24]
	v28 := vals[28]
	v32 := vals[32]
	v33 := vals[33]
	v37 := vals[37]
	v40 := vals[40]
	v45 := vals[45]
	v50 := vals[50]
	v55 := vals[55]
	v60 := vals[60]
	var n uint64
	for ; n < max; n++ {
		var v10 uint64
		if addr := uint64(0x0); addr < uint64(len(m0)) {
			v10 = m0[addr] & 0x7f
		}
		v13 := (v11 + 0x1) & 0x7f
		var v14 uint64
		if v10 <= v13 {
			v14 = 1
		}
		var v16 uint64
		if v14 != 0 {
			v16 = 0x4
		} else {
			v16 = 0x1
		}
		var v25 uint64
		if addr := uint64(0x1); addr < uint64(len(m0)) {
			v25 = m0[addr] & 0x7f
		}
		v26 := (v24 + v25) & 0xffffff
		v30 := (v28 + 0x1) & 0xffffff
		v35 := (v33 + 0x2) & 0xffffff
		v38 := (v37 + 0x1) & 0xffffff
		v43 := (v40 + 0x1) & 0xffffff
		v48 := (v45 + 0x1) & 0xffffff
		v53 := (v50 + 0x1) & 0xffffff
		v58 := (v55 + 0x1) & 0xffffff
		v62 := (v60 + 0x1) & 0xffffff
		var s20, s21, s27, s31, s36, s39, s44, s49, s54, s59, s63, s64 uint64
		switch v0 {
		case 0x0:
			v21 := v11
			v27 := v24
			v31 := v28
			v36 := v35
			v39 := v38
			v44 := v40
			v49 := v45
			v54 := v50
			v59 := v55
			v63 := v62
			s64 = 0x0
			s20 = 0x1
			s21 = v21
			s27 = v27
			s31 = v31
			s36 = v36
			s39 = v39
			s44 = v44
			s49 = v49
			s54 = v54
			s59 = v59
			s63 = v63
		case 0x1:
			v21 := v11
			v27 := v26
			v31 := v30
			v36 := v33
			v39 := v37
			v44 := v40
			v49 := v45
			v54 := v50
			v59 := v58
			v63 := v60
			s64 = 0x0
			s20 = 0x2
			s21 = v21
			s27 = v27
			s31 = v31
			s36 = v36
			s39 = v39
			s44 = v44
			s49 = v49
			s54 = v54
			s59 = v59
			s63 = v63
		case 0x2:
			v21 := v11
			v27 := v24
			v31 := v28
			v36 := v33
			v39 := v37
			v44 := v40
			v49 := v45
			v54 := v53
			v59 := v55
			v63 := v60
			s64 = 0x0
			s20 = 0x3
			s21 = v21
			s27 = v27
			s31 = v31
			s36 = v36
			s39 = v39
			s44 = v44
			s49 = v49
			s54 = v54
			s59 = v59
			s63 = v63
		case 0x3:
			v17 := v16
			v18 := v17
			v19 := v18
			v20 := v19
			v21 := v13
			v27 := v24
			v31 := v28
			v36 := v35
			v39 := v38
			var v41 uint64
			if v20 == 0x1 {
				v41 = 1
			}
			v42 := 0x1 & v41
			var v44 uint64
			if v42 != 0 {
				v44 = v43
			} else {
				v44 = v40
			}
			var v46 uint64
			if v20 == 0x4 {
				v46 = 1
			}
			v47 := 0x1 & v46
			var v49 uint64
			if v47 != 0 {
				v49 = v48
			} else {
				v49 = v45
			}
			var v51 uint64
			if v20 == 0x3 {
				v51 = 1
			}
			v52 := 0x0 & v51
			var v54 uint64
			if v52 != 0 {
				v54 = v53
			} else {
				v54 = v50
			}
			var v56 uint64
			if v20 == 0x2 {
				v56 = 1
			}
			v57 := 0x0 & v56
			var v59 uint64
			if v57 != 0 {
				v59 = v58
			} else {
				v59 = v55
			}
			v61 := 0x0 & v41
			var v63 uint64
			if v61 != 0 {
				v63 = v62
			} else {
				v63 = v60
			}
			s64 = 0x0
			s20 = v20
			s21 = v21
			s27 = v27
			s31 = v31
			s36 = v36
			s39 = v39
			s44 = v44
			s49 = v49
			s54 = v54
			s59 = v59
			s63 = v63
		case 0x4:
			v21 := v11
			v27 := v24
			v31 := v28
			v36 := v33
			v39 := v37
			v44 := v40
			v49 := v45
			v54 := v50
			v59 := v55
			v63 := v60
			s64 = 0x1
			s20 = 0x4
			s21 = v21
			s27 = v27
			s31 = v31
			s36 = v36
			s39 = v39
			s44 = v44
			s49 = v49
			s54 = v54
			s59 = v59
			s63 = v63
		default:
			var v2 uint64
			if v0 == 0x0 {
				v2 = 1
			}
			var v4 uint64
			if v0 == 0x1 {
				v4 = 1
			}
			var v6 uint64
			if v0 == 0x2 {
				v6 = 1
			}
			var v8 uint64
			if v0 == 0x3 {
				v8 = 1
			}
			var v17 uint64
			if v8 != 0 {
				v17 = v16
			} else {
				v17 = v0
			}
			var v18 uint64
			if v6 != 0 {
				v18 = 0x3
			} else {
				v18 = v17
			}
			var v19 uint64
			if v4 != 0 {
				v19 = 0x2
			} else {
				v19 = v18
			}
			var v20 uint64
			if v2 != 0 {
				v20 = 0x1
			} else {
				v20 = v19
			}
			var v21 uint64
			if v8 != 0 {
				v21 = v13
			} else {
				v21 = v11
			}
			var v27 uint64
			if v4 != 0 {
				v27 = v26
			} else {
				v27 = v24
			}
			var v31 uint64
			if v4 != 0 {
				v31 = v30
			} else {
				v31 = v28
			}
			v34 := (v2 | v8)
			var v36 uint64
			if v34 != 0 {
				v36 = v35
			} else {
				v36 = v33
			}
			var v39 uint64
			if v34 != 0 {
				v39 = v38
			} else {
				v39 = v37
			}
			var v41 uint64
			if v20 == 0x1 {
				v41 = 1
			}
			v42 := v8 & v41
			var v44 uint64
			if v42 != 0 {
				v44 = v43
			} else {
				v44 = v40
			}
			var v46 uint64
			if v20 == 0x4 {
				v46 = 1
			}
			v47 := v8 & v46
			var v49 uint64
			if v47 != 0 {
				v49 = v48
			} else {
				v49 = v45
			}
			var v51 uint64
			if v20 == 0x3 {
				v51 = 1
			}
			v52 := v6 & v51
			var v54 uint64
			if v52 != 0 {
				v54 = v53
			} else {
				v54 = v50
			}
			var v56 uint64
			if v20 == 0x2 {
				v56 = 1
			}
			v57 := v4 & v56
			var v59 uint64
			if v57 != 0 {
				v59 = v58
			} else {
				v59 = v55
			}
			v61 := v2 & v41
			var v63 uint64
			if v61 != 0 {
				v63 = v62
			} else {
				v63 = v60
			}
			var v64 uint64
			if v0 == 0x4 {
				v64 = 1
			}
			s64 = v64
			s20 = v20
			s21 = v21
			s27 = v27
			s31 = v31
			s36 = v36
			s39 = v39
			s44 = v44
			s49 = v49
			s54 = v54
			s59 = v59
			s63 = v63
		}
		if s64 != 0 {
			break
		}
		v0 = s20
		v11 = s21
		v22 = 0x0
		v24 = s27
		v28 = s31
		v32 = 0x0
		v33 = s36
		v37 = s39
		v40 = s44
		v45 = s49
		v50 = s54
		v55 = s59
		v60 = s63
	}
	vals[0] = v0
	vals[11] = v11
	vals[22] = v22
	vals[24] = v24
	vals[28] = v28
	vals[32] = v32
	vals[33] = v33
	vals[37] = v37
	vals[40] = v40
	vals[45] = v45
	vals[50] = v50
	vals[55] = v55
	vals[60] = v60
	return n
}

func run_stencil_slice_t42(vals []uint64, mems [][]uint64, max uint64) uint64 {
	_ = vals[52]
	m0 := mems[0]
	v0 := vals[0]
	v11 := vals[11]
	v22 := vals[22]
	v26 := vals[26]
	v30 := vals[30]
	v34 := vals[34]
	v37 := vals[37]
	v42 := vals[42]
	v47 := vals[47]
	var n uint64
	for ; n < max; n++ {
		var v10 uint64
		if addr := uint64(0x0); addr < uint64(len(m0)) {
			v10 = m0[addr] & 0x7f
		}
		v13 := (v11 + 0x1) & 0x7f
		var v14 uint64
		if v10 <= v13 {
			v14 = 1
		}
		var v16 uint64
		if v14 != 0 {
			v16 = 0x4
		} else {
			v16 = 0x1
		}
		var v23 uint64
		if addr := uint64(0x1); addr < uint64(len(m0)) {
			v23 = m0[addr] & 0x7f
		}
		v24 := (v22 + v23) & 0xffffff
		v28 := (v26 + 0x1) & 0xffffff
		v32 := (v30 + 0x2) & 0xffffff
		v35 := (v34 + 0x1) & 0xffffff
		v40 := (v37 + 0x1) & 0xffffff
		v45 := (v42 + 0x1) & 0xffffff
		v50 := (v47 + 0x1) & 0xffffff
		var s20, s21, s25, s29, s33, s36, s41, s46, s51, s52 uint64
		switch v0 {
		case 0x0:
			v21 := v11
			v25 := v22
			v29 := v26
			v33 := v32
			v36 := v35
			v41 := v37
			v46 := v42
			v51 := v47
			s52 = 0x0
			s20 = 0x1
			s21 = v21
			s25 = v25
			s29 = v29
			s33 = v33
			s36 = v36
			s41 = v41
			s46 = v46
			s51 = v51
		case 0x1:
			v21 := v11
			v25 := v24
			v29 := v28
			v33 := v30
			v36 := v34
			v41 := v37
			v46 := v42
			v51 := v50
			s52 = 0x0
			s20 = 0x2
			s21 = v21
			s25 = v25
			s29 = v29
			s33 = v33
			s36 = v36
			s41 = v41
			s46 = v46
			s51 = v51
		case 0x2:
			v21 := v11
			v25 := v22
			v29 := v26
			v33 := v30
			v36 := v34
			v41 := v37
			v46 := v45
			v51 := v47
			s52 = 0x0
			s20 = 0x3
			s21 = v21
			s25 = v25
			s29 = v29
			s33 = v33
			s36 = v36
			s41 = v41
			s46 = v46
			s51 = v51
		case 0x3:
			v17 := v16
			v18 := v17
			v19 := v18
			v20 := v19
			v21 := v13
			v25 := v22
			v29 := v26
			v33 := v32
			v36 := v35
			var v38 uint64
			if v20 == 0x1 {
				v38 = 1
			}
			v39 := 0x1 & v38
			var v41 uint64
			if v39 != 0 {
				v41 = v40
			} else {
				v41 = v37
			}
			var v43 uint64
			if v20 == 0x3 {
				v43 = 1
			}
			v44 := 0x0 & v43
			var v46 uint64
			if v44 != 0 {
				v46 = v45
			} else {
				v46 = v42
			}
			var v48 uint64
			if v20 == 0x2 {
				v48 = 1
			}
			v49 := 0x0 & v48
			var v51 uint64
			if v49 != 0 {
				v51 = v50
			} else {
				v51 = v47
			}
			s52 = 0x0
			s20 = v20
			s21 = v21
			s25 = v25
			s29 = v29
			s33 = v33
			s36 = v36
			s41 = v41
			s46 = v46
			s51 = v51
		case 0x4:
			v21 := v11
			v25 := v22
			v29 := v26
			v33 := v30
			v36 := v34
			v41 := v37
			v46 := v42
			v51 := v47
			s52 = 0x1
			s20 = 0x4
			s21 = v21
			s25 = v25
			s29 = v29
			s33 = v33
			s36 = v36
			s41 = v41
			s46 = v46
			s51 = v51
		default:
			var v2 uint64
			if v0 == 0x0 {
				v2 = 1
			}
			var v4 uint64
			if v0 == 0x1 {
				v4 = 1
			}
			var v6 uint64
			if v0 == 0x2 {
				v6 = 1
			}
			var v8 uint64
			if v0 == 0x3 {
				v8 = 1
			}
			var v17 uint64
			if v8 != 0 {
				v17 = v16
			} else {
				v17 = v0
			}
			var v18 uint64
			if v6 != 0 {
				v18 = 0x3
			} else {
				v18 = v17
			}
			var v19 uint64
			if v4 != 0 {
				v19 = 0x2
			} else {
				v19 = v18
			}
			var v20 uint64
			if v2 != 0 {
				v20 = 0x1
			} else {
				v20 = v19
			}
			var v21 uint64
			if v8 != 0 {
				v21 = v13
			} else {
				v21 = v11
			}
			var v25 uint64
			if v4 != 0 {
				v25 = v24
			} else {
				v25 = v22
			}
			var v29 uint64
			if v4 != 0 {
				v29 = v28
			} else {
				v29 = v26
			}
			v31 := (v2 | v8)
			var v33 uint64
			if v31 != 0 {
				v33 = v32
			} else {
				v33 = v30
			}
			var v36 uint64
			if v31 != 0 {
				v36 = v35
			} else {
				v36 = v34
			}
			var v38 uint64
			if v20 == 0x1 {
				v38 = 1
			}
			v39 := v8 & v38
			var v41 uint64
			if v39 != 0 {
				v41 = v40
			} else {
				v41 = v37
			}
			var v43 uint64
			if v20 == 0x3 {
				v43 = 1
			}
			v44 := v6 & v43
			var v46 uint64
			if v44 != 0 {
				v46 = v45
			} else {
				v46 = v42
			}
			var v48 uint64
			if v20 == 0x2 {
				v48 = 1
			}
			v49 := v4 & v48
			var v51 uint64
			if v49 != 0 {
				v51 = v50
			} else {
				v51 = v47
			}
			var v52 uint64
			if v0 == 0x4 {
				v52 = 1
			}
			s52 = v52
			s20 = v20
			s21 = v21
			s25 = v25
			s29 = v29
			s33 = v33
			s36 = v36
			s41 = v41
			s46 = v46
			s51 = v51
		}
		if s52 != 0 {
			break
		}
		v0 = s20
		v11 = s21
		v22 = s25
		v26 = s29
		v30 = s33
		v34 = s36
		v37 = s41
		v42 = s46
		v47 = s51
	}
	vals[0] = v0
	vals[11] = v11
	vals[22] = v22
	vals[26] = v26
	vals[30] = v30
	vals[34] = v34
	vals[37] = v37
	vals[42] = v42
	vals[47] = v47
	return n
}

func init() {
	rtl.RegisterNative("2e9becaef6b2d11ff4abb9b823bb0b5fbd77f08a4875fbb75e47a7c57fb7cfb7", "stencil", run_stencil)
	rtl.RegisterNative("01271f0e59b5b9ac0d9a51ac82f807ec5493c1a90582350981eef20ba03b63cb", "stencil_ins", run_stencil_ins)
	rtl.RegisterNative("b755c08a24d4dd3cbea12fa3569634b8e271aa7e06a31111b3622a4bde374399", "stencil_pruned", run_stencil_pruned)
	rtl.RegisterNative("78ad64c70e827f8f73f19df51cedfef177b31472078509f2e51d99a86712f57f", "stencil_slice_all", run_stencil_slice_all)
	rtl.RegisterNative("cbe54fb5e215dd9d7ce8c0b9050041a06210d68fe146ed654cc6f795db375526", "stencil_slice_t42", run_stencil_slice_t42)
}
