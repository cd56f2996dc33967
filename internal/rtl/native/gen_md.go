// Code generated by rtlgen. DO NOT EDIT.
//
// Regenerate with: go generate ./internal/rtl/native

package native

import "repro/internal/rtl"

func run_md(vals []uint64, mems [][]uint64, max uint64) uint64 {
	_ = vals[120]
	m0 := mems[0]
	m1 := mems[1]
	v0 := vals[0]
	v10 := vals[10]
	v13 := vals[13]
	v46 := vals[46]
	v56 := vals[56]
	v68 := vals[68]
	v80 := vals[80]
	v92 := vals[92]
	v104 := vals[104]
	v117 := vals[117]
	var n uint64
	for ; n < max; n++ {
		var v2 uint64
		if addr := uint64(0x0); addr < uint64(len(m0)) {
			v2 = m0[addr] & 0x1ff
		}
		var v3 uint64
		if addr := uint64(v0); addr < uint64(len(m0)) {
			v3 = m0[addr] & 0x7fffff
		}
		v5 := v3 & 0x7f
		v7 := (v3 >> 7)
		v9 := v7 & 0xffff
		var v15 uint64
		if v13 != 0x0 {
			v15 = 1
		}
		v17 := (v13 - 0x1) & 0x7f
		var v18 uint64
		if v15 != 0 {
			v18 = v17
		} else {
			v18 = v13
		}
		var v20 uint64
		if v13 == 0x0 {
			v20 = 1
		}
		var v21 uint64
		if v2 <= v0 {
			v21 = 1
		}
		var v23 uint64
		if v21 != 0 {
			v23 = 0x4
		} else {
			v23 = 0x1
		}
		v36 := (v0 + 0x1) & 0x1ff
		v39 := (v9 | 0x0)
		v40 := (v39 << 0) & 0xffffffffffff
		v41 := (v39 >> 0)
		v42 := (v40 | v41)
		v44 := (v42 + 0x1) & 0xffffffffffff
		v45 := (v42 * v44) & 0xffffffffffff
		v47 := (v46 + v45) & 0xffffffffffff
		v49 := (v39 << 1) & 0xffffffffffff
		v51 := (v39 >> 47)
		v52 := (v49 | v51)
		v54 := (v52 + 0x3) & 0xffffffffffff
		v55 := (v52 * v54) & 0xffffffffffff
		v57 := (v56 + v55) & 0xffffffffffff
		v59 := (v46 ^ v56)
		v61 := (v39 << 2) & 0xffffffffffff
		v63 := (v39 >> 46)
		v64 := (v61 | v63)
		v66 := (v64 + 0x5) & 0xffffffffffff
		v67 := (v64 * v66) & 0xffffffffffff
		v69 := (v68 + v67) & 0xffffffffffff
		v71 := (v59 ^ v68)
		v73 := (v39 << 3) & 0xffffffffffff
		v75 := (v39 >> 45)
		v76 := (v73 | v75)
		v78 := (v76 + 0x7) & 0xffffffffffff
		v79 := (v76 * v78) & 0xffffffffffff
		v81 := (v80 + v79) & 0xffffffffffff
		v83 := (v71 ^ v80)
		v85 := (v39 << 4) & 0xffffffffffff
		v87 := (v39 >> 44)
		v88 := (v85 | v87)
		v90 := (v88 + 0x9) & 0xffffffffffff
		v91 := (v88 * v90) & 0xffffffffffff
		v93 := (v92 + v91) & 0xffffffffffff
		v95 := (v83 ^ v92)
		v97 := (v39 << 5) & 0xffffffffffff
		v99 := (v39 >> 43)
		v100 := (v97 | v99)
		v102 := (v100 + 0xb) & 0xffffffffffff
		v103 := (v100 * v102) & 0xffffffffffff
		v105 := (v104 + v103) & 0xffffffffffff
		v107 := (v95 ^ v104)
		v108 := (v9 * v9) & 0xffffffff
		v109 := (v108 * v108) & 0xffffffff
		v110 := (v109 >> 4)
		v111 := (v110 + v108) & 0xffffffff
		v112 := (v5 + 0x1) & 0x7f
		v113 := (v111 * v112) & 0xffffffff
		v115 := v107 & 0xffffffff
		v116 := (v113 ^ v115)
		v118 := (v117 + v116) & 0xffffffff
		var s19, s25, s34, s37, s48, s58, s70, s82, s94, s106, s119, s120 uint64
		switch v10 {
		case 0x0:
			v19 := v18
			v37 := v0
			v48 := v46
			v58 := v56
			v70 := v68
			v82 := v80
			v94 := v92
			v106 := v104
			v119 := v117
			s120 = 0x0
			s37 = v37
			s34 = 0x1
			s19 = v19
			s48 = v48
			s58 = v58
			s70 = v70
			s82 = v82
			s94 = v94
			s106 = v106
			s119 = v119
			s25 = 0x0
		case 0x1:
			v19 := v5
			v37 := v0
			v48 := v46
			v58 := v56
			v70 := v68
			v82 := v80
			v94 := v92
			v106 := v104
			v119 := v117
			s120 = 0x0
			s37 = v37
			s34 = 0x2
			s19 = v19
			s48 = v48
			s58 = v58
			s70 = v70
			s82 = v82
			s94 = v94
			s106 = v106
			s119 = v119
			s25 = 0x0
		case 0x2:
			v19 := v18
			var v27 uint64
			if v20 != 0 {
				v27 = 0x3
			} else {
				v27 = 0x2
			}
			v30 := v27
			v31 := v30
			v34 := v31
			v37 := v0
			v48 := v47
			v58 := v57
			v70 := v69
			v82 := v81
			v94 := v93
			v106 := v105
			v119 := v118
			s120 = 0x0
			s37 = v37
			s34 = v34
			s19 = v19
			s48 = v48
			s58 = v58
			s70 = v70
			s82 = v82
			s94 = v94
			s106 = v106
			s119 = v119
			s25 = 0x0
		case 0x3:
			v19 := v18
			v26 := v23
			v30 := v26
			v31 := v30
			v34 := v31
			v37 := v36
			v48 := v46
			v58 := v56
			v70 := v68
			v82 := v80
			v94 := v92
			v106 := v104
			v119 := v117
			s120 = 0x0
			s37 = v37
			s34 = v34
			s19 = v19
			s48 = v48
			s58 = v58
			s70 = v70
			s82 = v82
			s94 = v94
			s106 = v106
			s119 = v119
			s25 = 0x1
		case 0x4:
			v19 := v18
			v37 := v0
			v48 := v46
			v58 := v56
			v70 := v68
			v82 := v80
			v94 := v92
			v106 := v104
			v119 := v117
			s120 = 0x1
			s37 = v37
			s34 = 0x4
			s19 = v19
			s48 = v48
			s58 = v58
			s70 = v70
			s82 = v82
			s94 = v94
			s106 = v106
			s119 = v119
			s25 = 0x0
		default:
			var v12 uint64
			if v10 == 0x1 {
				v12 = 1
			}
			var v19 uint64
			if v12 != 0 {
				v19 = v5
			} else {
				v19 = v18
			}
			var v25 uint64
			if v10 == 0x3 {
				v25 = 1
			}
			var v26 uint64
			if v25 != 0 {
				v26 = v23
			} else {
				v26 = v10
			}
			var v27 uint64
			if v20 != 0 {
				v27 = 0x3
			} else {
				v27 = v10
			}
			var v29 uint64
			if v10 == 0x2 {
				v29 = 1
			}
			var v30 uint64
			if v29 != 0 {
				v30 = v27
			} else {
				v30 = v26
			}
			var v31 uint64
			if v12 != 0 {
				v31 = 0x2
			} else {
				v31 = v30
			}
			var v33 uint64
			if v10 == 0x0 {
				v33 = 1
			}
			var v34 uint64
			if v33 != 0 {
				v34 = 0x1
			} else {
				v34 = v31
			}
			var v37 uint64
			if v25 != 0 {
				v37 = v36
			} else {
				v37 = v0
			}
			var v48 uint64
			if v29 != 0 {
				v48 = v47
			} else {
				v48 = v46
			}
			var v58 uint64
			if v29 != 0 {
				v58 = v57
			} else {
				v58 = v56
			}
			var v70 uint64
			if v29 != 0 {
				v70 = v69
			} else {
				v70 = v68
			}
			var v82 uint64
			if v29 != 0 {
				v82 = v81
			} else {
				v82 = v80
			}
			var v94 uint64
			if v29 != 0 {
				v94 = v93
			} else {
				v94 = v92
			}
			var v106 uint64
			if v29 != 0 {
				v106 = v105
			} else {
				v106 = v104
			}
			var v119 uint64
			if v29 != 0 {
				v119 = v118
			} else {
				v119 = v117
			}
			var v120 uint64
			if v10 == 0x4 {
				v120 = 1
			}
			s120 = v120
			s37 = v37
			s34 = v34
			s19 = v19
			s48 = v48
			s58 = v58
			s70 = v70
			s82 = v82
			s94 = v94
			s106 = v106
			s119 = v119
			s25 = v25
		}
		if s120 != 0 {
			break
		}
		if s25 != 0 {
			if addr := uint64(v0); addr < uint64(len(m1)) {
				m1[addr] = v117
			}
		}
		v0 = s37
		v10 = s34
		v13 = s19
		v46 = s48
		v56 = s58
		v68 = s70
		v80 = s82
		v92 = s94
		v104 = s106
		v117 = s119
	}
	vals[0] = v0
	vals[10] = v10
	vals[13] = v13
	vals[46] = v46
	vals[56] = v56
	vals[68] = v68
	vals[80] = v80
	vals[92] = v92
	vals[104] = v104
	vals[117] = v117
	return n
}

func run_md_ins(vals []uint64, mems [][]uint64, max uint64) uint64 {
	_ = vals[154]
	m0 := mems[0]
	m1 := mems[1]
	v0 := vals[0]
	v10 := vals[10]
	v13 := vals[13]
	v46 := vals[46]
	v56 := vals[56]
	v68 := vals[68]
	v80 := vals[80]
	v92 := vals[92]
	v104 := vals[104]
	v117 := vals[117]
	v124 := vals[124]
	v129 := vals[129]
	v134 := vals[134]
	v139 := vals[139]
	v143 := vals[143]
	v146 := vals[146]
	v149 := vals[149]
	v152 := vals[152]
	var n uint64
	for ; n < max; n++ {
		var v2 uint64
		if addr := uint64(0x0); addr < uint64(len(m0)) {
			v2 = m0[addr] & 0x1ff
		}
		var v3 uint64
		if addr := uint64(v0); addr < uint64(len(m0)) {
			v3 = m0[addr] & 0x7fffff
		}
		v5 := v3 & 0x7f
		v7 := (v3 >> 7)
		v9 := v7 & 0xffff
		var v15 uint64
		if v13 != 0x0 {
			v15 = 1
		}
		v17 := (v13 - 0x1) & 0x7f
		var v18 uint64
		if v15 != 0 {
			v18 = v17
		} else {
			v18 = v13
		}
		var v20 uint64
		if v13 == 0x0 {
			v20 = 1
		}
		var v21 uint64
		if v2 <= v0 {
			v21 = 1
		}
		var v23 uint64
		if v21 != 0 {
			v23 = 0x4
		} else {
			v23 = 0x1
		}
		v36 := (v0 + 0x1) & 0x1ff
		v39 := (v9 | 0x0)
		v40 := (v39 << 0) & 0xffffffffffff
		v41 := (v39 >> 0)
		v42 := (v40 | v41)
		v44 := (v42 + 0x1) & 0xffffffffffff
		v45 := (v42 * v44) & 0xffffffffffff
		v47 := (v46 + v45) & 0xffffffffffff
		v49 := (v39 << 1) & 0xffffffffffff
		v51 := (v39 >> 47)
		v52 := (v49 | v51)
		v54 := (v52 + 0x3) & 0xffffffffffff
		v55 := (v52 * v54) & 0xffffffffffff
		v57 := (v56 + v55) & 0xffffffffffff
		v59 := (v46 ^ v56)
		v61 := (v39 << 2) & 0xffffffffffff
		v63 := (v39 >> 46)
		v64 := (v61 | v63)
		v66 := (v64 + 0x5) & 0xffffffffffff
		v67 := (v64 * v66) & 0xffffffffffff
		v69 := (v68 + v67) & 0xffffffffffff
		v71 := (v59 ^ v68)
		v73 := (v39 << 3) & 0xffffffffffff
		v75 := (v39 >> 45)
		v76 := (v73 | v75)
		v78 := (v76 + 0x7) & 0xffffffffffff
		v79 := (v76 * v78) & 0xffffffffffff
		v81 := (v80 + v79) & 0xffffffffffff
		v83 := (v71 ^ v80)
		v85 := (v39 << 4) & 0xffffffffffff
		v87 := (v39 >> 44)
		v88 := (v85 | v87)
		v90 := (v88 + 0x9) & 0xffffffffffff
		v91 := (v88 * v90) & 0xffffffffffff
		v93 := (v92 + v91) & 0xffffffffffff
		v95 := (v83 ^ v92)
		v97 := (v39 << 5) & 0xffffffffffff
		v99 := (v39 >> 43)
		v100 := (v97 | v99)
		v102 := (v100 + 0xb) & 0xffffffffffff
		v103 := (v100 * v102) & 0xffffffffffff
		v105 := (v104 + v103) & 0xffffffffffff
		v107 := (v95 ^ v104)
		v108 := (v9 * v9) & 0xffffffff
		v109 := (v108 * v108) & 0xffffffff
		v110 := (v109 >> 4)
		v111 := (v110 + v108) & 0xffffffff
		v112 := (v5 + 0x1) & 0x7f
		v113 := (v111 * v112) & 0xffffffff
		v115 := v107 & 0xffffffff
		v116 := (v113 ^ v115)
		v118 := (v117 + v116) & 0xffffffff
		v125 := (v124 + 0x1) & 0xffffff
		v130 := (v129 + 0x1) & 0xffffff
		v135 := (v134 + 0x1) & 0xffffff
		v140 := (v139 + 0x1) & 0xffffff
		v144 := (v143 + 0x1) & 0xffffff
		v147 := (v146 + 0x1) & 0xffffff
		v150 := (v149 + v5) & 0xffffff
		v153 := (v152 + v13) & 0xffffff
		var s19, s25, s34, s37, s48, s58, s70, s82, s94, s106, s119, s120, s126, s131, s136, s141, s145, s148, s151, s154 uint64
		switch v10 {
		case 0x0:
			v19 := v18
			v37 := v0
			v48 := v46
			v58 := v56
			v70 := v68
			v82 := v80
			v94 := v92
			v106 := v104
			v119 := v117
			v126 := v125
			v131 := v129
			v136 := v134
			v141 := v139
			v145 := v143
			v148 := v146
			v151 := v149
			v154 := v152
			s120 = 0x0
			s37 = v37
			s34 = 0x1
			s19 = v19
			s48 = v48
			s58 = v58
			s70 = v70
			s82 = v82
			s94 = v94
			s106 = v106
			s119 = v119
			s126 = v126
			s131 = v131
			s136 = v136
			s141 = v141
			s145 = v145
			s148 = v148
			s151 = v151
			s154 = v154
			s25 = 0x0
		case 0x1:
			v19 := v5
			v37 := v0
			v48 := v46
			v58 := v56
			v70 := v68
			v82 := v80
			v94 := v92
			v106 := v104
			v119 := v117
			v126 := v124
			v131 := v130
			v136 := v134
			v141 := v139
			v145 := v143
			v148 := v147
			v151 := v150
			v154 := v153
			s120 = 0x0
			s37 = v37
			s34 = 0x2
			s19 = v19
			s48 = v48
			s58 = v58
			s70 = v70
			s82 = v82
			s94 = v94
			s106 = v106
			s119 = v119
			s126 = v126
			s131 = v131
			s136 = v136
			s141 = v141
			s145 = v145
			s148 = v148
			s151 = v151
			s154 = v154
			s25 = 0x0
		case 0x2:
			v19 := v18
			var v27 uint64
			if v20 != 0 {
				v27 = 0x3
			} else {
				v27 = 0x2
			}
			v30 := v27
			v31 := v30
			v34 := v31
			v37 := v0
			v48 := v47
			v58 := v57
			v70 := v69
			v82 := v81
			v94 := v93
			v106 := v105
			v119 := v118
			var v121 uint64
			if v34 == 0x1 {
				v121 = 1
			}
			v122 := 0x0 & v121
			var v126 uint64
			if v122 != 0 {
				v126 = v125
			} else {
				v126 = v124
			}
			var v127 uint64
			if v34 == 0x2 {
				v127 = 1
			}
			v128 := 0x0 & v127
			var v131 uint64
			if v128 != 0 {
				v131 = v130
			} else {
				v131 = v129
			}
			var v132 uint64
			if v34 == 0x3 {
				v132 = 1
			}
			v133 := 0x1 & v132
			var v136 uint64
			if v133 != 0 {
				v136 = v135
			} else {
				v136 = v134
			}
			var v137 uint64
			if v34 == 0x4 {
				v137 = 1
			}
			v138 := 0x0 & v137
			var v141 uint64
			if v138 != 0 {
				v141 = v140
			} else {
				v141 = v139
			}
			v142 := 0x0 & v121
			var v145 uint64
			if v142 != 0 {
				v145 = v144
			} else {
				v145 = v143
			}
			v148 := v146
			v151 := v149
			v154 := v152
			s120 = 0x0
			s37 = v37
			s34 = v34
			s19 = v19
			s48 = v48
			s58 = v58
			s70 = v70
			s82 = v82
			s94 = v94
			s106 = v106
			s119 = v119
			s126 = v126
			s131 = v131
			s136 = v136
			s141 = v141
			s145 = v145
			s148 = v148
			s151 = v151
			s154 = v154
			s25 = 0x0
		case 0x3:
			v19 := v18
			v26 := v23
			v30 := v26
			v31 := v30
			v34 := v31
			v37 := v36
			v48 := v46
			v58 := v56
			v70 := v68
			v82 := v80
			v94 := v92
			v106 := v104
			v119 := v117
			var v121 uint64
			if v34 == 0x1 {
				v121 = 1
			}
			v122 := 0x0 & v121
			var v126 uint64
			if v122 != 0 {
				v126 = v125
			} else {
				v126 = v124
			}
			var v127 uint64
			if v34 == 0x2 {
				v127 = 1
			}
			v128 := 0x0 & v127
			var v131 uint64
			if v128 != 0 {
				v131 = v130
			} else {
				v131 = v129
			}
			var v132 uint64
			if v34 == 0x3 {
				v132 = 1
			}
			v133 := 0x0 & v132
			var v136 uint64
			if v133 != 0 {
				v136 = v135
			} else {
				v136 = v134
			}
			var v137 uint64
			if v34 == 0x4 {
				v137 = 1
			}
			v138 := 0x1 & v137
			var v141 uint64
			if v138 != 0 {
				v141 = v140
			} else {
				v141 = v139
			}
			v142 := 0x1 & v121
			var v145 uint64
			if v142 != 0 {
				v145 = v144
			} else {
				v145 = v143
			}
			v148 := v146
			v151 := v149
			v154 := v152
			s120 = 0x0
			s37 = v37
			s34 = v34
			s19 = v19
			s48 = v48
			s58 = v58
			s70 = v70
			s82 = v82
			s94 = v94
			s106 = v106
			s119 = v119
			s126 = v126
			s131 = v131
			s136 = v136
			s141 = v141
			s145 = v145
			s148 = v148
			s151 = v151
			s154 = v154
			s25 = 0x1
		case 0x4:
			v19 := v18
			v37 := v0
			v48 := v46
			v58 := v56
			v70 := v68
			v82 := v80
			v94 := v92
			v106 := v104
			v119 := v117
			v126 := v124
			v131 := v129
			v136 := v134
			v141 := v139
			v145 := v143
			v148 := v146
			v151 := v149
			v154 := v152
			s120 = 0x1
			s37 = v37
			s34 = 0x4
			s19 = v19
			s48 = v48
			s58 = v58
			s70 = v70
			s82 = v82
			s94 = v94
			s106 = v106
			s119 = v119
			s126 = v126
			s131 = v131
			s136 = v136
			s141 = v141
			s145 = v145
			s148 = v148
			s151 = v151
			s154 = v154
			s25 = 0x0
		default:
			var v12 uint64
			if v10 == 0x1 {
				v12 = 1
			}
			var v19 uint64
			if v12 != 0 {
				v19 = v5
			} else {
				v19 = v18
			}
			var v25 uint64
			if v10 == 0x3 {
				v25 = 1
			}
			var v26 uint64
			if v25 != 0 {
				v26 = v23
			} else {
				v26 = v10
			}
			var v27 uint64
			if v20 != 0 {
				v27 = 0x3
			} else {
				v27 = v10
			}
			var v29 uint64
			if v10 == 0x2 {
				v29 = 1
			}
			var v30 uint64
			if v29 != 0 {
				v30 = v27
			} else {
				v30 = v26
			}
			var v31 uint64
			if v12 != 0 {
				v31 = 0x2
			} else {
				v31 = v30
			}
			var v33 uint64
			if v10 == 0x0 {
				v33 = 1
			}
			var v34 uint64
			if v33 != 0 {
				v34 = 0x1
			} else {
				v34 = v31
			}
			var v37 uint64
			if v25 != 0 {
				v37 = v36
			} else {
				v37 = v0
			}
			var v48 uint64
			if v29 != 0 {
				v48 = v47
			} else {
				v48 = v46
			}
			var v58 uint64
			if v29 != 0 {
				v58 = v57
			} else {
				v58 = v56
			}
			var v70 uint64
			if v29 != 0 {
				v70 = v69
			} else {
				v70 = v68
			}
			var v82 uint64
			if v29 != 0 {
				v82 = v81
			} else {
				v82 = v80
			}
			var v94 uint64
			if v29 != 0 {
				v94 = v93
			} else {
				v94 = v92
			}
			var v106 uint64
			if v29 != 0 {
				v106 = v105
			} else {
				v106 = v104
			}
			var v119 uint64
			if v29 != 0 {
				v119 = v118
			} else {
				v119 = v117
			}
			var v120 uint64
			if v10 == 0x4 {
				v120 = 1
			}
			var v121 uint64
			if v34 == 0x1 {
				v121 = 1
			}
			v122 := v33 & v121
			var v126 uint64
			if v122 != 0 {
				v126 = v125
			} else {
				v126 = v124
			}
			var v127 uint64
			if v34 == 0x2 {
				v127 = 1
			}
			v128 := v12 & v127
			var v131 uint64
			if v128 != 0 {
				v131 = v130
			} else {
				v131 = v129
			}
			var v132 uint64
			if v34 == 0x3 {
				v132 = 1
			}
			v133 := v29 & v132
			var v136 uint64
			if v133 != 0 {
				v136 = v135
			} else {
				v136 = v134
			}
			var v137 uint64
			if v34 == 0x4 {
				v137 = 1
			}
			v138 := v25 & v137
			var v141 uint64
			if v138 != 0 {
				v141 = v140
			} else {
				v141 = v139
			}
			v142 := v25 & v121
			var v145 uint64
			if v142 != 0 {
				v145 = v144
			} else {
				v145 = v143
			}
			var v148 uint64
			if v12 != 0 {
				v148 = v147
			} else {
				v148 = v146
			}
			var v151 uint64
			if v12 != 0 {
				v151 = v150
			} else {
				v151 = v149
			}
			var v154 uint64
			if v12 != 0 {
				v154 = v153
			} else {
				v154 = v152
			}
			s120 = v120
			s37 = v37
			s34 = v34
			s19 = v19
			s48 = v48
			s58 = v58
			s70 = v70
			s82 = v82
			s94 = v94
			s106 = v106
			s119 = v119
			s126 = v126
			s131 = v131
			s136 = v136
			s141 = v141
			s145 = v145
			s148 = v148
			s151 = v151
			s154 = v154
			s25 = v25
		}
		if s120 != 0 {
			break
		}
		if s25 != 0 {
			if addr := uint64(v0); addr < uint64(len(m1)) {
				m1[addr] = v117
			}
		}
		v0 = s37
		v10 = s34
		v13 = s19
		v46 = s48
		v56 = s58
		v68 = s70
		v80 = s82
		v92 = s94
		v104 = s106
		v117 = s119
		v124 = s126
		v129 = s131
		v134 = s136
		v139 = s141
		v143 = s145
		v146 = s148
		v149 = s151
		v152 = s154
	}
	vals[0] = v0
	vals[10] = v10
	vals[13] = v13
	vals[46] = v46
	vals[56] = v56
	vals[68] = v68
	vals[80] = v80
	vals[92] = v92
	vals[104] = v104
	vals[117] = v117
	vals[124] = v124
	vals[129] = v129
	vals[134] = v134
	vals[139] = v139
	vals[143] = v143
	vals[146] = v146
	vals[149] = v149
	vals[152] = v152
	return n
}

func run_md_pruned(vals []uint64, mems [][]uint64, max uint64) uint64 {
	_ = vals[136]
	m0 := mems[0]
	m1 := mems[1]
	v0 := vals[0]
	v1 := vals[1]
	v13 := vals[13]
	v34 := vals[34]
	v46 := vals[46]
	v53 := vals[53]
	v61 := vals[61]
	v69 := vals[69]
	v77 := vals[77]
	v85 := vals[85]
	v102 := vals[102]
	v108 := vals[108]
	v113 := vals[113]
	v118 := vals[118]
	v123 := vals[123]
	v127 := vals[127]
	v130 := vals[130]
	v133 := vals[133]
	var n uint64
	for ; n < max; n++ {
		v5 := (v0 + 0x1) & 0x1ff
		var v15 uint64
		if v13 == 0x0 {
			v15 = 1
		}
		var v18 uint64
		if addr := uint64(0x0); addr < uint64(len(m0)) {
			v18 = m0[addr] & 0x1ff
		}
		var v19 uint64
		if v18 <= v0 {
			v19 = 1
		}
		var v21 uint64
		if v19 != 0 {
			v21 = 0x4
		} else {
			v21 = 0x1
		}
		var v26 uint64
		if addr := uint64(v0); addr < uint64(len(m0)) {
			v26 = m0[addr] & 0x7fffff
		}
		v28 := v26 & 0x7f
		var v29 uint64
		if v13 != 0x0 {
			v29 = 1
		}
		v31 := (v13 - 0x1) & 0x7f
		var v32 uint64
		if v29 != 0 {
			v32 = v31
		} else {
			v32 = v13
		}
		v36 := (v26 >> 7)
		v38 := v36 & 0xffff
		v40 := (v38 | 0x0)
		v42 := (v40 + 0x1) & 0xffffffffffff
		v43 := (v40 * v42) & 0xffffffffffff
		v44 := (v34 + v43) & 0xffffffffffff
		v47 := (v40 << 1) & 0xffffffffffff
		v49 := (v47 + 0x3) & 0xffffffffffff
		v50 := (v47 * v49) & 0xffffffffffff
		v51 := (v46 + v50) & 0xffffffffffff
		v55 := (v40 << 2) & 0xffffffffffff
		v57 := (v55 + 0x5) & 0xffffffffffff
		v58 := (v55 * v57) & 0xffffffffffff
		v59 := (v53 + v58) & 0xffffffffffff
		v63 := (v40 << 3) & 0xffffffffffff
		v65 := (v63 + 0x7) & 0xffffffffffff
		v66 := (v63 * v65) & 0xffffffffffff
		v67 := (v61 + v66) & 0xffffffffffff
		v71 := (v40 << 4) & 0xffffffffffff
		v73 := (v71 + 0x9) & 0xffffffffffff
		v74 := (v71 * v73) & 0xffffffffffff
		v75 := (v69 + v74) & 0xffffffffffff
		v79 := (v40 << 5) & 0xffffffffffff
		v81 := (v79 + 0xb) & 0xffffffffffff
		v82 := (v79 * v81) & 0xffffffffffff
		v83 := (v77 + v82) & 0xffffffffffff
		v86 := (v38 * v38) & 0xffffffff
		v87 := (v86 * v86) & 0xffffffff
		v88 := (v87 >> 4)
		v89 := (v88 + v86) & 0xffffffff
		v90 := (v28 + 0x1) & 0x7f
		v91 := (v89 * v90) & 0xffffffff
		v92 := (v34 ^ v46)
		v93 := (v92 ^ v53)
		v94 := (v93 ^ v61)
		v95 := (v94 ^ v69)
		v96 := (v95 ^ v77)
		v98 := v96 & 0xffffffff
		v99 := (v91 ^ v98)
		v100 := (v85 + v99) & 0xffffffff
		v106 := (v102 + 0x1) & 0xffffff
		v111 := (v108 + 0x1) & 0xffffff
		v116 := (v113 + 0x1) & 0xffffff
		v121 := (v118 + 0x1) & 0xffffff
		v125 := (v123 + 0x1) & 0xffffff
		v128 := (v127 + 0x1) & 0xffffff
		v131 := (v130 + v28) & 0xffffff
		v134 := (v133 + v13) & 0xffffff
		var s3, s6, s25, s33, s45, s52, s60, s68, s76, s84, s101, s107, s112, s117, s122, s126, s129, s132, s135, s136 uint64
		switch v1 {
		case 0x0:
			v6 := v0
			v33 := v32
			v45 := v34
			v52 := v46
			v60 := v53
			v68 := v61
			v76 := v69
			v84 := v77
			v101 := v85
			v107 := v106
			v112 := v108
			v117 := v113
			v122 := v118
			v126 := v123
			v129 := v127
			v132 := v130
			v135 := v133
			s136 = 0x0
			s6 = v6
			s25 = 0x1
			s33 = v33
			s45 = v45
			s52 = v52
			s60 = v60
			s68 = v68
			s76 = v76
			s84 = v84
			s101 = v101
			s107 = v107
			s112 = v112
			s117 = v117
			s122 = v122
			s126 = v126
			s129 = v129
			s132 = v132
			s135 = v135
			s3 = 0x0
		case 0x1:
			v6 := v0
			v33 := v28
			v45 := v34
			v52 := v46
			v60 := v53
			v68 := v61
			v76 := v69
			v84 := v77
			v101 := v85
			v107 := v102
			v112 := v111
			v117 := v113
			v122 := v118
			v126 := v123
			v129 := v128
			v132 := v131
			v135 := v134
			s136 = 0x0
			s6 = v6
			s25 = 0x2
			s33 = v33
			s45 = v45
			s52 = v52
			s60 = v60
			s68 = v68
			s76 = v76
			s84 = v84
			s101 = v101
			s107 = v107
			s112 = v112
			s117 = v117
			s122 = v122
			s126 = v126
			s129 = v129
			s132 = v132
			s135 = v135
			s3 = 0x0
		case 0x2:
			v6 := v0
			var v16 uint64
			if v15 != 0 {
				v16 = 0x3
			} else {
				v16 = 0x2
			}
			v23 := v16
			v24 := v23
			v25 := v24
			v33 := v32
			v45 := v44
			v52 := v51
			v60 := v59
			v68 := v67
			v76 := v75
			v84 := v83
			v101 := v100
			var v103 uint64
			if v25 == 0x1 {
				v103 = 1
			}
			v104 := 0x0 & v103
			var v107 uint64
			if v104 != 0 {
				v107 = v106
			} else {
				v107 = v102
			}
			var v109 uint64
			if v25 == 0x2 {
				v109 = 1
			}
			v110 := 0x0 & v109
			var v112 uint64
			if v110 != 0 {
				v112 = v111
			} else {
				v112 = v108
			}
			var v114 uint64
			if v25 == 0x3 {
				v114 = 1
			}
			v115 := 0x1 & v114
			var v117 uint64
			if v115 != 0 {
				v117 = v116
			} else {
				v117 = v113
			}
			var v119 uint64
			if v25 == 0x4 {
				v119 = 1
			}
			v120 := 0x0 & v119
			var v122 uint64
			if v120 != 0 {
				v122 = v121
			} else {
				v122 = v118
			}
			v124 := 0x0 & v103
			var v126 uint64
			if v124 != 0 {
				v126 = v125
			} else {
				v126 = v123
			}
			v129 := v127
			v132 := v130
			v135 := v133
			s136 = 0x0
			s6 = v6
			s25 = v25
			s33 = v33
			s45 = v45
			s52 = v52
			s60 = v60
			s68 = v68
			s76 = v76
			s84 = v84
			s101 = v101
			s107 = v107
			s112 = v112
			s117 = v117
			s122 = v122
			s126 = v126
			s129 = v129
			s132 = v132
			s135 = v135
			s3 = 0x0
		case 0x3:
			v6 := v5
			v22 := v21
			v23 := v22
			v24 := v23
			v25 := v24
			v33 := v32
			v45 := v34
			v52 := v46
			v60 := v53
			v68 := v61
			v76 := v69
			v84 := v77
			v101 := v85
			var v103 uint64
			if v25 == 0x1 {
				v103 = 1
			}
			v104 := 0x0 & v103
			var v107 uint64
			if v104 != 0 {
				v107 = v106
			} else {
				v107 = v102
			}
			var v109 uint64
			if v25 == 0x2 {
				v109 = 1
			}
			v110 := 0x0 & v109
			var v112 uint64
			if v110 != 0 {
				v112 = v111
			} else {
				v112 = v108
			}
			var v114 uint64
			if v25 == 0x3 {
				v114 = 1
			}
			v115 := 0x0 & v114
			var v117 uint64
			if v115 != 0 {
				v117 = v116
			} else {
				v117 = v113
			}
			var v119 uint64
			if v25 == 0x4 {
				v119 = 1
			}
			v120 := 0x1 & v119
			var v122 uint64
			if v120 != 0 {
				v122 = v121
			} else {
				v122 = v118
			}
			v124 := 0x1 & v103
			var v126 uint64
			if v124 != 0 {
				v126 = v125
			} else {
				v126 = v123
			}
			v129 := v127
			v132 := v130
			v135 := v133
			s136 = 0x0
			s6 = v6
			s25 = v25
			s33 = v33
			s45 = v45
			s52 = v52
			s60 = v60
			s68 = v68
			s76 = v76
			s84 = v84
			s101 = v101
			s107 = v107
			s112 = v112
			s117 = v117
			s122 = v122
			s126 = v126
			s129 = v129
			s132 = v132
			s135 = v135
			s3 = 0x1
		case 0x4:
			v6 := v0
			v33 := v32
			v45 := v34
			v52 := v46
			v60 := v53
			v68 := v61
			v76 := v69
			v84 := v77
			v101 := v85
			v107 := v102
			v112 := v108
			v117 := v113
			v122 := v118
			v126 := v123
			v129 := v127
			v132 := v130
			v135 := v133
			s136 = 0x1
			s6 = v6
			s25 = 0x4
			s33 = v33
			s45 = v45
			s52 = v52
			s60 = v60
			s68 = v68
			s76 = v76
			s84 = v84
			s101 = v101
			s107 = v107
			s112 = v112
			s117 = v117
			s122 = v122
			s126 = v126
			s129 = v129
			s132 = v132
			s135 = v135
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
			var v12 uint64
			if v1 == 0x2 {
				v12 = 1
			}
			var v16 uint64
			if v15 != 0 {
				v16 = 0x3
			} else {
				v16 = v1
			}
			var v22 uint64
			if v3 != 0 {
				v22 = v21
			} else {
				v22 = v1
			}
			var v23 uint64
			if v12 != 0 {
				v23 = v16
			} else {
				v23 = v22
			}
			var v24 uint64
			if v10 != 0 {
				v24 = 0x2
			} else {
				v24 = v23
			}
			var v25 uint64
			if v8 != 0 {
				v25 = 0x1
			} else {
				v25 = v24
			}
			var v33 uint64
			if v10 != 0 {
				v33 = v28
			} else {
				v33 = v32
			}
			var v45 uint64
			if v12 != 0 {
				v45 = v44
			} else {
				v45 = v34
			}
			var v52 uint64
			if v12 != 0 {
				v52 = v51
			} else {
				v52 = v46
			}
			var v60 uint64
			if v12 != 0 {
				v60 = v59
			} else {
				v60 = v53
			}
			var v68 uint64
			if v12 != 0 {
				v68 = v67
			} else {
				v68 = v61
			}
			var v76 uint64
			if v12 != 0 {
				v76 = v75
			} else {
				v76 = v69
			}
			var v84 uint64
			if v12 != 0 {
				v84 = v83
			} else {
				v84 = v77
			}
			var v101 uint64
			if v12 != 0 {
				v101 = v100
			} else {
				v101 = v85
			}
			var v103 uint64
			if v25 == 0x1 {
				v103 = 1
			}
			v104 := v8 & v103
			var v107 uint64
			if v104 != 0 {
				v107 = v106
			} else {
				v107 = v102
			}
			var v109 uint64
			if v25 == 0x2 {
				v109 = 1
			}
			v110 := v10 & v109
			var v112 uint64
			if v110 != 0 {
				v112 = v111
			} else {
				v112 = v108
			}
			var v114 uint64
			if v25 == 0x3 {
				v114 = 1
			}
			v115 := v12 & v114
			var v117 uint64
			if v115 != 0 {
				v117 = v116
			} else {
				v117 = v113
			}
			var v119 uint64
			if v25 == 0x4 {
				v119 = 1
			}
			v120 := v3 & v119
			var v122 uint64
			if v120 != 0 {
				v122 = v121
			} else {
				v122 = v118
			}
			v124 := v3 & v103
			var v126 uint64
			if v124 != 0 {
				v126 = v125
			} else {
				v126 = v123
			}
			var v129 uint64
			if v10 != 0 {
				v129 = v128
			} else {
				v129 = v127
			}
			var v132 uint64
			if v10 != 0 {
				v132 = v131
			} else {
				v132 = v130
			}
			var v135 uint64
			if v10 != 0 {
				v135 = v134
			} else {
				v135 = v133
			}
			var v136 uint64
			if v1 == 0x4 {
				v136 = 1
			}
			s136 = v136
			s6 = v6
			s25 = v25
			s33 = v33
			s45 = v45
			s52 = v52
			s60 = v60
			s68 = v68
			s76 = v76
			s84 = v84
			s101 = v101
			s107 = v107
			s112 = v112
			s117 = v117
			s122 = v122
			s126 = v126
			s129 = v129
			s132 = v132
			s135 = v135
			s3 = v3
		}
		if s136 != 0 {
			break
		}
		if s3 != 0 {
			if addr := uint64(v0); addr < uint64(len(m1)) {
				m1[addr] = v85
			}
		}
		v0 = s6
		v1 = s25
		v13 = s33
		v34 = s45
		v46 = s52
		v53 = s60
		v61 = s68
		v69 = s76
		v77 = s84
		v85 = s101
		v102 = s107
		v108 = s112
		v113 = s117
		v118 = s122
		v123 = s126
		v127 = s129
		v130 = s132
		v133 = s135
	}
	vals[0] = v0
	vals[1] = v1
	vals[13] = v13
	vals[34] = v34
	vals[46] = v46
	vals[53] = v53
	vals[61] = v61
	vals[69] = v69
	vals[77] = v77
	vals[85] = v85
	vals[102] = v102
	vals[108] = v108
	vals[113] = v113
	vals[118] = v118
	vals[123] = v123
	vals[127] = v127
	vals[130] = v130
	vals[133] = v133
	return n
}

func run_md_slice_all(vals []uint64, mems [][]uint64, max uint64) uint64 {
	_ = vals[58]
	m0 := mems[0]
	v0 := vals[0]
	v11 := vals[11]
	v22 := vals[22]
	v24 := vals[24]
	v30 := vals[30]
	v34 := vals[34]
	v39 := vals[39]
	v44 := vals[44]
	v49 := vals[49]
	v54 := vals[54]
	var n uint64
	for ; n < max; n++ {
		var v10 uint64
		if addr := uint64(0x0); addr < uint64(len(m0)) {
			v10 = m0[addr] & 0x1ff
		}
		var v12 uint64
		if v10 <= v11 {
			v12 = 1
		}
		var v14 uint64
		if v12 != 0 {
			v14 = 0x4
		} else {
			v14 = 0x1
		}
		v20 := (v11 + 0x1) & 0x1ff
		var v25 uint64
		if addr := uint64(v11); addr < uint64(len(m0)) {
			v25 = m0[addr] & 0x7fffff
		}
		v27 := v25 & 0x7f
		v28 := (v24 + v27) & 0xffffff
		v32 := (v30 + 0x1) & 0xffffff
		v37 := (v34 + 0x1) & 0xffffff
		v42 := (v39 + 0x1) & 0xffffff
		v47 := (v44 + 0x1) & 0xffffff
		v52 := (v49 + 0x1) & 0xffffff
		v56 := (v54 + 0x1) & 0xffffff
		var s18, s21, s29, s33, s38, s43, s48, s53, s57, s58 uint64
		switch v0 {
		case 0x0:
			v21 := v11
			v29 := v24
			v33 := v30
			v38 := v34
			v43 := v39
			v48 := v44
			v53 := v49
			v57 := v56
			s58 = 0x0
			s18 = 0x1
			s21 = v21
			s29 = v29
			s33 = v33
			s38 = v38
			s43 = v43
			s48 = v48
			s53 = v53
			s57 = v57
		case 0x1:
			v21 := v11
			v29 := v28
			v33 := v32
			v38 := v34
			v43 := v39
			v48 := v44
			v53 := v52
			v57 := v54
			s58 = 0x0
			s18 = 0x2
			s21 = v21
			s29 = v29
			s33 = v33
			s38 = v38
			s43 = v43
			s48 = v48
			s53 = v53
			s57 = v57
		case 0x2:
			v21 := v11
			v29 := v24
			v33 := v30
			v38 := v34
			v43 := v39
			v48 := v47
			v53 := v49
			v57 := v54
			s58 = 0x0
			s18 = 0x3
			s21 = v21
			s29 = v29
			s33 = v33
			s38 = v38
			s43 = v43
			s48 = v48
			s53 = v53
			s57 = v57
		case 0x3:
			v15 := v14
			v16 := v15
			v17 := v16
			v18 := v17
			v21 := v20
			v29 := v24
			v33 := v30
			var v35 uint64
			if v18 == 0x1 {
				v35 = 1
			}
			v36 := 0x1 & v35
			var v38 uint64
			if v36 != 0 {
				v38 = v37
			} else {
				v38 = v34
			}
			var v40 uint64
			if v18 == 0x4 {
				v40 = 1
			}
			v41 := 0x1 & v40
			var v43 uint64
			if v41 != 0 {
				v43 = v42
			} else {
				v43 = v39
			}
			var v45 uint64
			if v18 == 0x3 {
				v45 = 1
			}
			v46 := 0x0 & v45
			var v48 uint64
			if v46 != 0 {
				v48 = v47
			} else {
				v48 = v44
			}
			var v50 uint64
			if v18 == 0x2 {
				v50 = 1
			}
			v51 := 0x0 & v50
			var v53 uint64
			if v51 != 0 {
				v53 = v52
			} else {
				v53 = v49
			}
			v55 := 0x0 & v35
			var v57 uint64
			if v55 != 0 {
				v57 = v56
			} else {
				v57 = v54
			}
			s58 = 0x0
			s18 = v18
			s21 = v21
			s29 = v29
			s33 = v33
			s38 = v38
			s43 = v43
			s48 = v48
			s53 = v53
			s57 = v57
		case 0x4:
			v21 := v11
			v29 := v24
			v33 := v30
			v38 := v34
			v43 := v39
			v48 := v44
			v53 := v49
			v57 := v54
			s58 = 0x1
			s18 = 0x4
			s21 = v21
			s29 = v29
			s33 = v33
			s38 = v38
			s43 = v43
			s48 = v48
			s53 = v53
			s57 = v57
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
			var v15 uint64
			if v8 != 0 {
				v15 = v14
			} else {
				v15 = v0
			}
			var v16 uint64
			if v6 != 0 {
				v16 = 0x3
			} else {
				v16 = v15
			}
			var v17 uint64
			if v4 != 0 {
				v17 = 0x2
			} else {
				v17 = v16
			}
			var v18 uint64
			if v2 != 0 {
				v18 = 0x1
			} else {
				v18 = v17
			}
			var v21 uint64
			if v8 != 0 {
				v21 = v20
			} else {
				v21 = v11
			}
			var v29 uint64
			if v4 != 0 {
				v29 = v28
			} else {
				v29 = v24
			}
			var v33 uint64
			if v4 != 0 {
				v33 = v32
			} else {
				v33 = v30
			}
			var v35 uint64
			if v18 == 0x1 {
				v35 = 1
			}
			v36 := v8 & v35
			var v38 uint64
			if v36 != 0 {
				v38 = v37
			} else {
				v38 = v34
			}
			var v40 uint64
			if v18 == 0x4 {
				v40 = 1
			}
			v41 := v8 & v40
			var v43 uint64
			if v41 != 0 {
				v43 = v42
			} else {
				v43 = v39
			}
			var v45 uint64
			if v18 == 0x3 {
				v45 = 1
			}
			v46 := v6 & v45
			var v48 uint64
			if v46 != 0 {
				v48 = v47
			} else {
				v48 = v44
			}
			var v50 uint64
			if v18 == 0x2 {
				v50 = 1
			}
			v51 := v4 & v50
			var v53 uint64
			if v51 != 0 {
				v53 = v52
			} else {
				v53 = v49
			}
			v55 := v2 & v35
			var v57 uint64
			if v55 != 0 {
				v57 = v56
			} else {
				v57 = v54
			}
			var v58 uint64
			if v0 == 0x4 {
				v58 = 1
			}
			s58 = v58
			s18 = v18
			s21 = v21
			s29 = v29
			s33 = v33
			s38 = v38
			s43 = v43
			s48 = v48
			s53 = v53
			s57 = v57
		}
		if s58 != 0 {
			break
		}
		v0 = s18
		v11 = s21
		v22 = 0x0
		v24 = s29
		v30 = s33
		v34 = s38
		v39 = s43
		v44 = s48
		v49 = s53
		v54 = s57
	}
	vals[0] = v0
	vals[11] = v11
	vals[22] = v22
	vals[24] = v24
	vals[30] = v30
	vals[34] = v34
	vals[39] = v39
	vals[44] = v44
	vals[49] = v49
	vals[54] = v54
	return n
}

func run_md_slice_t42(vals []uint64, mems [][]uint64, max uint64) uint64 {
	_ = vals[28]
	m0 := mems[0]
	v0 := vals[0]
	v11 := vals[11]
	v22 := vals[22]
	var n uint64
	for ; n < max; n++ {
		var v10 uint64
		if addr := uint64(0x0); addr < uint64(len(m0)) {
			v10 = m0[addr] & 0x1ff
		}
		var v12 uint64
		if v10 <= v11 {
			v12 = 1
		}
		var v14 uint64
		if v12 != 0 {
			v14 = 0x4
		} else {
			v14 = 0x1
		}
		v20 := (v11 + 0x1) & 0x1ff
		var v23 uint64
		if addr := uint64(v11); addr < uint64(len(m0)) {
			v23 = m0[addr] & 0x7fffff
		}
		v25 := v23 & 0x7f
		v26 := (v22 + v25) & 0xffffff
		var s18, s21, s27, s28 uint64
		switch v0 {
		case 0x0:
			v21 := v11
			v27 := v22
			s28 = 0x0
			s18 = 0x1
			s21 = v21
			s27 = v27
		case 0x1:
			v21 := v11
			v27 := v26
			s28 = 0x0
			s18 = 0x2
			s21 = v21
			s27 = v27
		case 0x2:
			v21 := v11
			v27 := v22
			s28 = 0x0
			s18 = 0x3
			s21 = v21
			s27 = v27
		case 0x3:
			v15 := v14
			v16 := v15
			v17 := v16
			v18 := v17
			v21 := v20
			v27 := v22
			s28 = 0x0
			s18 = v18
			s21 = v21
			s27 = v27
		case 0x4:
			v21 := v11
			v27 := v22
			s28 = 0x1
			s18 = 0x4
			s21 = v21
			s27 = v27
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
			var v15 uint64
			if v8 != 0 {
				v15 = v14
			} else {
				v15 = v0
			}
			var v16 uint64
			if v6 != 0 {
				v16 = 0x3
			} else {
				v16 = v15
			}
			var v17 uint64
			if v4 != 0 {
				v17 = 0x2
			} else {
				v17 = v16
			}
			var v18 uint64
			if v2 != 0 {
				v18 = 0x1
			} else {
				v18 = v17
			}
			var v21 uint64
			if v8 != 0 {
				v21 = v20
			} else {
				v21 = v11
			}
			var v27 uint64
			if v4 != 0 {
				v27 = v26
			} else {
				v27 = v22
			}
			var v28 uint64
			if v0 == 0x4 {
				v28 = 1
			}
			s28 = v28
			s18 = v18
			s21 = v21
			s27 = v27
		}
		if s28 != 0 {
			break
		}
		v0 = s18
		v11 = s21
		v22 = s27
	}
	vals[0] = v0
	vals[11] = v11
	vals[22] = v22
	return n
}

func init() {
	rtl.RegisterNative("bf665af83092e78ba4742ba0360fdb4a642472c8157b274d0cf98fbf0a4e62bf", "md", run_md)
	rtl.RegisterNative("71c048f69366b0da4b4475476728fcd000efc70268835312d5d54a9c13ffbbd8", "md_ins", run_md_ins)
	rtl.RegisterNative("05b7ef3c862051b804d0a5af1480df5629f338cab0de597ab655c62723a60af3", "md_pruned", run_md_pruned)
	rtl.RegisterNative("8ad7a0606b801a145109b1f8a3fc057a4974fa5a36349f61ef2a4947f1c67b2a", "md_slice_all", run_md_slice_all)
	rtl.RegisterNative("dea19e0260931bacd423fd7f3db8ffd5b185d4fe6b5dbaea3c873e975387bbd9", "md_slice_t42", run_md_slice_t42)
}
