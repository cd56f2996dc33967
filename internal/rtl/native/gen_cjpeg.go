// Code generated by rtlgen. DO NOT EDIT.
//
// Regenerate with: go generate ./internal/rtl/native

package native

import "repro/internal/rtl"

func run_cjpeg(vals []uint64, mems [][]uint64, max uint64) uint64 {
	_ = vals[162]
	m0 := mems[0]
	m1 := mems[1]
	v0 := vals[0]
	v10 := vals[10]
	v14 := vals[14]
	v27 := vals[27]
	v66 := vals[66]
	v76 := vals[76]
	v88 := vals[88]
	v99 := vals[99]
	v111 := vals[111]
	v123 := vals[123]
	v134 := vals[134]
	v146 := vals[146]
	v159 := vals[159]
	var n uint64
	for ; n < max; n++ {
		var v2 uint64
		if addr := uint64(0x0); addr < uint64(len(m0)) {
			v2 = m0[addr] & 0x7ff
		}
		var v3 uint64
		if addr := uint64(v0); addr < uint64(len(m0)) {
			v3 = m0[addr] & 0x3fffff
		}
		v5 := v3 & 0x3f
		v7 := (v3 >> 6)
		v9 := v7 & 0xffff
		var v16 uint64
		if v14 != 0x0 {
			v16 = 1
		}
		v18 := (v14 - 0x1) & 0xf
		var v19 uint64
		if v16 != 0 {
			v19 = v18
		} else {
			v19 = v14
		}
		v22 := (v5 | 0x0)
		v24 := (v22 + 0x3) & 0x7f
		var v28 uint64
		if v27 != 0x0 {
			v28 = 1
		}
		v30 := (v27 - 0x1) & 0x7f
		var v31 uint64
		if v28 != 0 {
			v31 = v30
		} else {
			v31 = v27
		}
		var v33 uint64
		if v14 == 0x0 {
			v33 = 1
		}
		var v34 uint64
		if v27 == 0x0 {
			v34 = 1
		}
		var v35 uint64
		if v2 <= v0 {
			v35 = 1
		}
		var v37 uint64
		if v35 != 0 {
			v37 = 0x6
		} else {
			v37 = 0x1
		}
		v55 := (v0 + 0x1) & 0x7ff
		v59 := (v9 | 0x0)
		v60 := (v59 << 0) & 0xffffffffff
		v61 := (v59 >> 0)
		v62 := (v60 | v61)
		v64 := (v62 + 0x1) & 0xffffffffff
		v65 := (v62 * v64) & 0xffffffffff
		v67 := (v66 + v65) & 0xffffffffff
		v69 := (v59 << 1) & 0xffffffffff
		v71 := (v59 >> 39)
		v72 := (v69 | v71)
		v74 := (v72 + 0x3) & 0xffffffffff
		v75 := (v72 * v74) & 0xffffffffff
		v77 := (v76 + v75) & 0xffffffffff
		v79 := (v66 ^ v76)
		v81 := (v59 << 2) & 0xffffffffff
		v83 := (v59 >> 38)
		v84 := (v81 | v83)
		v86 := (v84 + 0x5) & 0xffffffffff
		v87 := (v84 * v86) & 0xffffffffff
		v89 := (v88 + v87) & 0xffffffffff
		v91 := (v79 ^ v88)
		v92 := (v59 << 3) & 0xffffffffff
		v94 := (v59 >> 37)
		v95 := (v92 | v94)
		v97 := (v95 + 0x7) & 0xffffffffff
		v98 := (v95 * v97) & 0xffffffffff
		v100 := (v99 + v98) & 0xffffffffff
		v102 := (v91 ^ v99)
		v104 := (v59 << 4) & 0xffffffffff
		v106 := (v59 >> 36)
		v107 := (v104 | v106)
		v109 := (v107 + 0x9) & 0xffffffffff
		v110 := (v107 * v109) & 0xffffffffff
		v112 := (v111 + v110) & 0xffffffffff
		v114 := (v102 ^ v111)
		v116 := (v59 << 5) & 0xffffffffff
		v118 := (v59 >> 35)
		v119 := (v116 | v118)
		v121 := (v119 + 0xb) & 0xffffffffff
		v122 := (v119 * v121) & 0xffffffffff
		v124 := (v123 + v122) & 0xffffffffff
		v126 := (v114 ^ v123)
		v127 := (v59 << 6) & 0xffffffffff
		v129 := (v59 >> 34)
		v130 := (v127 | v129)
		v132 := (v130 + 0xd) & 0xffffffffff
		v133 := (v130 * v132) & 0xffffffffff
		v135 := (v134 + v133) & 0xffffffffff
		v137 := (v126 ^ v134)
		v139 := (v59 << 7) & 0xffffffffff
		v141 := (v59 >> 33)
		v142 := (v139 | v141)
		v144 := (v142 + 0xf) & 0xffffffffff
		v145 := (v142 * v144) & 0xffffffffff
		v147 := (v146 + v145) & 0xffffffffff
		v149 := (v137 ^ v146)
		v150 := (v9 * v9) & 0xffffffff
		v151 := (v9 << 4) & 0xffff
		v152 := (v150 + v151) & 0xffffffff
		v154 := (v5 + 0x1) & 0x3f
		v155 := (v152 * v154) & 0xffffffff
		v157 := v149 & 0xffffffff
		v158 := (v155 ^ v157)
		v160 := (v159 + v158) & 0xffffffff
		var s20, s32, s39, s53, s56, s68, s78, s90, s101, s113, s125, s136, s148, s161, s162 uint64
		switch v10 {
		case 0x0:
			v20 := v19
			v32 := v31
			v56 := v0
			v68 := v66
			v78 := v76
			v90 := v88
			v101 := v99
			v113 := v111
			v125 := v123
			v136 := v134
			v148 := v146
			v161 := v159
			s162 = 0x0
			s56 = v56
			s53 = 0x1
			s20 = v20
			s32 = v32
			s68 = v68
			s78 = v78
			s90 = v90
			s101 = v101
			s113 = v113
			s125 = v125
			s136 = v136
			s148 = v148
			s161 = v161
			s39 = 0x0
		case 0x1:
			v32 := v31
			v56 := v0
			v68 := v66
			v78 := v76
			v90 := v88
			v101 := v99
			v113 := v111
			v125 := v123
			v136 := v134
			v148 := v146
			v161 := v159
			s162 = 0x0
			s56 = v56
			s53 = 0x2
			s20 = 0xc
			s32 = v32
			s68 = v68
			s78 = v78
			s90 = v90
			s101 = v101
			s113 = v113
			s125 = v125
			s136 = v136
			s148 = v148
			s161 = v161
			s39 = 0x0
		case 0x2:
			v20 := v19
			v32 := v31
			var v46 uint64
			if v33 != 0 {
				v46 = 0x3
			} else {
				v46 = 0x2
			}
			v49 := v46
			v50 := v49
			v53 := v50
			v56 := v0
			v68 := v67
			v78 := v77
			v90 := v89
			v101 := v100
			v113 := v112
			v125 := v124
			v136 := v135
			v148 := v147
			v161 := v160
			s162 = 0x0
			s56 = v56
			s53 = v53
			s20 = v20
			s32 = v32
			s68 = v68
			s78 = v78
			s90 = v90
			s101 = v101
			s113 = v113
			s125 = v125
			s136 = v136
			s148 = v148
			s161 = v161
			s39 = 0x0
		case 0x3:
			v20 := v19
			v32 := v24
			v56 := v0
			v68 := v66
			v78 := v76
			v90 := v88
			v101 := v99
			v113 := v111
			v125 := v123
			v136 := v134
			v148 := v146
			v161 := v159
			s162 = 0x0
			s56 = v56
			s53 = 0x4
			s20 = v20
			s32 = v32
			s68 = v68
			s78 = v78
			s90 = v90
			s101 = v101
			s113 = v113
			s125 = v125
			s136 = v136
			s148 = v148
			s161 = v161
			s39 = 0x0
		case 0x4:
			v20 := v19
			v32 := v31
			var v41 uint64
			if v34 != 0 {
				v41 = 0x5
			} else {
				v41 = 0x4
			}
			v44 := v41
			v45 := v44
			v49 := v45
			v50 := v49
			v53 := v50
			v56 := v0
			v68 := v67
			v78 := v77
			v90 := v89
			v101 := v100
			v113 := v112
			v125 := v124
			v136 := v135
			v148 := v147
			v161 := v160
			s162 = 0x0
			s56 = v56
			s53 = v53
			s20 = v20
			s32 = v32
			s68 = v68
			s78 = v78
			s90 = v90
			s101 = v101
			s113 = v113
			s125 = v125
			s136 = v136
			s148 = v148
			s161 = v161
			s39 = 0x0
		case 0x5:
			v20 := v19
			v32 := v31
			v40 := v37
			v44 := v40
			v45 := v44
			v49 := v45
			v50 := v49
			v53 := v50
			v56 := v55
			v68 := v66
			v78 := v76
			v90 := v88
			v101 := v99
			v113 := v111
			v125 := v123
			v136 := v134
			v148 := v146
			v161 := v159
			s162 = 0x0
			s56 = v56
			s53 = v53
			s20 = v20
			s32 = v32
			s68 = v68
			s78 = v78
			s90 = v90
			s101 = v101
			s113 = v113
			s125 = v125
			s136 = v136
			s148 = v148
			s161 = v161
			s39 = 0x1
		case 0x6:
			v20 := v19
			v32 := v31
			v56 := v0
			v68 := v66
			v78 := v76
			v90 := v88
			v101 := v99
			v113 := v111
			v125 := v123
			v136 := v134
			v148 := v146
			v161 := v159
			s162 = 0x1
			s56 = v56
			s53 = 0x6
			s20 = v20
			s32 = v32
			s68 = v68
			s78 = v78
			s90 = v90
			s101 = v101
			s113 = v113
			s125 = v125
			s136 = v136
			s148 = v148
			s161 = v161
			s39 = 0x0
		default:
			var v12 uint64
			if v10 == 0x1 {
				v12 = 1
			}
			var v20 uint64
			if v12 != 0 {
				v20 = 0xc
			} else {
				v20 = v19
			}
			var v26 uint64
			if v10 == 0x3 {
				v26 = 1
			}
			var v32 uint64
			if v26 != 0 {
				v32 = v24
			} else {
				v32 = v31
			}
			var v39 uint64
			if v10 == 0x5 {
				v39 = 1
			}
			var v40 uint64
			if v39 != 0 {
				v40 = v37
			} else {
				v40 = v10
			}
			var v41 uint64
			if v34 != 0 {
				v41 = 0x5
			} else {
				v41 = v10
			}
			var v43 uint64
			if v10 == 0x4 {
				v43 = 1
			}
			var v44 uint64
			if v43 != 0 {
				v44 = v41
			} else {
				v44 = v40
			}
			var v45 uint64
			if v26 != 0 {
				v45 = 0x4
			} else {
				v45 = v44
			}
			var v46 uint64
			if v33 != 0 {
				v46 = 0x3
			} else {
				v46 = v10
			}
			var v48 uint64
			if v10 == 0x2 {
				v48 = 1
			}
			var v49 uint64
			if v48 != 0 {
				v49 = v46
			} else {
				v49 = v45
			}
			var v50 uint64
			if v12 != 0 {
				v50 = 0x2
			} else {
				v50 = v49
			}
			var v52 uint64
			if v10 == 0x0 {
				v52 = 1
			}
			var v53 uint64
			if v52 != 0 {
				v53 = 0x1
			} else {
				v53 = v50
			}
			var v56 uint64
			if v39 != 0 {
				v56 = v55
			} else {
				v56 = v0
			}
			v57 := (v48 | v43)
			var v68 uint64
			if v57 != 0 {
				v68 = v67
			} else {
				v68 = v66
			}
			var v78 uint64
			if v57 != 0 {
				v78 = v77
			} else {
				v78 = v76
			}
			var v90 uint64
			if v57 != 0 {
				v90 = v89
			} else {
				v90 = v88
			}
			var v101 uint64
			if v57 != 0 {
				v101 = v100
			} else {
				v101 = v99
			}
			var v113 uint64
			if v57 != 0 {
				v113 = v112
			} else {
				v113 = v111
			}
			var v125 uint64
			if v57 != 0 {
				v125 = v124
			} else {
				v125 = v123
			}
			var v136 uint64
			if v57 != 0 {
				v136 = v135
			} else {
				v136 = v134
			}
			var v148 uint64
			if v57 != 0 {
				v148 = v147
			} else {
				v148 = v146
			}
			var v161 uint64
			if v57 != 0 {
				v161 = v160
			} else {
				v161 = v159
			}
			var v162 uint64
			if v10 == 0x6 {
				v162 = 1
			}
			s162 = v162
			s56 = v56
			s53 = v53
			s20 = v20
			s32 = v32
			s68 = v68
			s78 = v78
			s90 = v90
			s101 = v101
			s113 = v113
			s125 = v125
			s136 = v136
			s148 = v148
			s161 = v161
			s39 = v39
		}
		if s162 != 0 {
			break
		}
		if s39 != 0 {
			if addr := uint64(v0); addr < uint64(len(m1)) {
				m1[addr] = v159
			}
		}
		v0 = s56
		v10 = s53
		v14 = s20
		v27 = s32
		v66 = s68
		v76 = s78
		v88 = s90
		v99 = s101
		v111 = s113
		v123 = s125
		v134 = s136
		v146 = s148
		v159 = s161
	}
	vals[0] = v0
	vals[10] = v10
	vals[14] = v14
	vals[27] = v27
	vals[66] = v66
	vals[76] = v76
	vals[88] = v88
	vals[99] = v99
	vals[111] = v111
	vals[123] = v123
	vals[134] = v134
	vals[146] = v146
	vals[159] = v159
	return n
}

func run_cjpeg_ins(vals []uint64, mems [][]uint64, max uint64) uint64 {
	_ = vals[215]
	m0 := mems[0]
	m1 := mems[1]
	v0 := vals[0]
	v10 := vals[10]
	v14 := vals[14]
	v27 := vals[27]
	v66 := vals[66]
	v76 := vals[76]
	v88 := vals[88]
	v99 := vals[99]
	v111 := vals[111]
	v123 := vals[123]
	v134 := vals[134]
	v146 := vals[146]
	v159 := vals[159]
	v166 := vals[166]
	v171 := vals[171]
	v176 := vals[176]
	v181 := vals[181]
	v186 := vals[186]
	v191 := vals[191]
	v195 := vals[195]
	v198 := vals[198]
	v201 := vals[201]
	v204 := vals[204]
	v207 := vals[207]
	v210 := vals[210]
	v213 := vals[213]
	var n uint64
	for ; n < max; n++ {
		var v2 uint64
		if addr := uint64(0x0); addr < uint64(len(m0)) {
			v2 = m0[addr] & 0x7ff
		}
		var v3 uint64
		if addr := uint64(v0); addr < uint64(len(m0)) {
			v3 = m0[addr] & 0x3fffff
		}
		v5 := v3 & 0x3f
		v7 := (v3 >> 6)
		v9 := v7 & 0xffff
		var v16 uint64
		if v14 != 0x0 {
			v16 = 1
		}
		v18 := (v14 - 0x1) & 0xf
		var v19 uint64
		if v16 != 0 {
			v19 = v18
		} else {
			v19 = v14
		}
		v22 := (v5 | 0x0)
		v24 := (v22 + 0x3) & 0x7f
		var v28 uint64
		if v27 != 0x0 {
			v28 = 1
		}
		v30 := (v27 - 0x1) & 0x7f
		var v31 uint64
		if v28 != 0 {
			v31 = v30
		} else {
			v31 = v27
		}
		var v33 uint64
		if v14 == 0x0 {
			v33 = 1
		}
		var v34 uint64
		if v27 == 0x0 {
			v34 = 1
		}
		var v35 uint64
		if v2 <= v0 {
			v35 = 1
		}
		var v37 uint64
		if v35 != 0 {
			v37 = 0x6
		} else {
			v37 = 0x1
		}
		v55 := (v0 + 0x1) & 0x7ff
		v59 := (v9 | 0x0)
		v60 := (v59 << 0) & 0xffffffffff
		v61 := (v59 >> 0)
		v62 := (v60 | v61)
		v64 := (v62 + 0x1) & 0xffffffffff
		v65 := (v62 * v64) & 0xffffffffff
		v67 := (v66 + v65) & 0xffffffffff
		v69 := (v59 << 1) & 0xffffffffff
		v71 := (v59 >> 39)
		v72 := (v69 | v71)
		v74 := (v72 + 0x3) & 0xffffffffff
		v75 := (v72 * v74) & 0xffffffffff
		v77 := (v76 + v75) & 0xffffffffff
		v79 := (v66 ^ v76)
		v81 := (v59 << 2) & 0xffffffffff
		v83 := (v59 >> 38)
		v84 := (v81 | v83)
		v86 := (v84 + 0x5) & 0xffffffffff
		v87 := (v84 * v86) & 0xffffffffff
		v89 := (v88 + v87) & 0xffffffffff
		v91 := (v79 ^ v88)
		v92 := (v59 << 3) & 0xffffffffff
		v94 := (v59 >> 37)
		v95 := (v92 | v94)
		v97 := (v95 + 0x7) & 0xffffffffff
		v98 := (v95 * v97) & 0xffffffffff
		v100 := (v99 + v98) & 0xffffffffff
		v102 := (v91 ^ v99)
		v104 := (v59 << 4) & 0xffffffffff
		v106 := (v59 >> 36)
		v107 := (v104 | v106)
		v109 := (v107 + 0x9) & 0xffffffffff
		v110 := (v107 * v109) & 0xffffffffff
		v112 := (v111 + v110) & 0xffffffffff
		v114 := (v102 ^ v111)
		v116 := (v59 << 5) & 0xffffffffff
		v118 := (v59 >> 35)
		v119 := (v116 | v118)
		v121 := (v119 + 0xb) & 0xffffffffff
		v122 := (v119 * v121) & 0xffffffffff
		v124 := (v123 + v122) & 0xffffffffff
		v126 := (v114 ^ v123)
		v127 := (v59 << 6) & 0xffffffffff
		v129 := (v59 >> 34)
		v130 := (v127 | v129)
		v132 := (v130 + 0xd) & 0xffffffffff
		v133 := (v130 * v132) & 0xffffffffff
		v135 := (v134 + v133) & 0xffffffffff
		v137 := (v126 ^ v134)
		v139 := (v59 << 7) & 0xffffffffff
		v141 := (v59 >> 33)
		v142 := (v139 | v141)
		v144 := (v142 + 0xf) & 0xffffffffff
		v145 := (v142 * v144) & 0xffffffffff
		v147 := (v146 + v145) & 0xffffffffff
		v149 := (v137 ^ v146)
		v150 := (v9 * v9) & 0xffffffff
		v151 := (v9 << 4) & 0xffff
		v152 := (v150 + v151) & 0xffffffff
		v154 := (v5 + 0x1) & 0x3f
		v155 := (v152 * v154) & 0xffffffff
		v157 := v149 & 0xffffffff
		v158 := (v155 ^ v157)
		v160 := (v159 + v158) & 0xffffffff
		v167 := (v166 + 0x1) & 0xffffff
		v172 := (v171 + 0x1) & 0xffffff
		v177 := (v176 + 0x1) & 0xffffff
		v182 := (v181 + 0x1) & 0xffffff
		v187 := (v186 + 0x1) & 0xffffff
		v192 := (v191 + 0x1) & 0xffffff
		v196 := (v195 + 0x1) & 0xffffff
		v199 := (v198 + 0x1) & 0xffffff
		v202 := (v201 + 0xc) & 0xffffff
		v205 := (v204 + v14) & 0xffffff
		v208 := (v207 + 0x1) & 0xffffff
		v211 := (v210 + v24) & 0xffffff
		v214 := (v213 + v27) & 0xffffff
		var s20, s32, s39, s53, s56, s68, s78, s90, s101, s113, s125, s136, s148, s161, s162, s168, s173, s178, s183, s188, s193, s197, s200, s203, s206, s209, s212, s215 uint64
		switch v10 {
		case 0x0:
			v20 := v19
			v32 := v31
			v56 := v0
			v68 := v66
			v78 := v76
			v90 := v88
			v101 := v99
			v113 := v111
			v125 := v123
			v136 := v134
			v148 := v146
			v161 := v159
			v168 := v167
			v173 := v171
			v178 := v176
			v183 := v181
			v188 := v186
			v193 := v191
			v197 := v195
			v200 := v198
			v203 := v201
			v206 := v204
			v209 := v207
			v212 := v210
			v215 := v213
			s162 = 0x0
			s56 = v56
			s53 = 0x1
			s20 = v20
			s32 = v32
			s68 = v68
			s78 = v78
			s90 = v90
			s101 = v101
			s113 = v113
			s125 = v125
			s136 = v136
			s148 = v148
			s161 = v161
			s168 = v168
			s173 = v173
			s178 = v178
			s183 = v183
			s188 = v188
			s193 = v193
			s197 = v197
			s200 = v200
			s203 = v203
			s206 = v206
			s209 = v209
			s212 = v212
			s215 = v215
			s39 = 0x0
		case 0x1:
			v32 := v31
			v56 := v0
			v68 := v66
			v78 := v76
			v90 := v88
			v101 := v99
			v113 := v111
			v125 := v123
			v136 := v134
			v148 := v146
			v161 := v159
			v168 := v166
			v173 := v172
			v178 := v176
			v183 := v181
			v188 := v186
			v193 := v191
			v197 := v195
			v200 := v199
			v203 := v202
			v206 := v205
			v209 := v207
			v212 := v210
			v215 := v213
			s162 = 0x0
			s56 = v56
			s53 = 0x2
			s20 = 0xc
			s32 = v32
			s68 = v68
			s78 = v78
			s90 = v90
			s101 = v101
			s113 = v113
			s125 = v125
			s136 = v136
			s148 = v148
			s161 = v161
			s168 = v168
			s173 = v173
			s178 = v178
			s183 = v183
			s188 = v188
			s193 = v193
			s197 = v197
			s200 = v200
			s203 = v203
			s206 = v206
			s209 = v209
			s212 = v212
			s215 = v215
			s39 = 0x0
		case 0x2:
			v20 := v19
			v32 := v31
			var v46 uint64
			if v33 != 0 {
				v46 = 0x3
			} else {
				v46 = 0x2
			}
			v49 := v46
			v50 := v49
			v53 := v50
			v56 := v0
			v68 := v67
			v78 := v77
			v90 := v89
			v101 := v100
			v113 := v112
			v125 := v124
			v136 := v135
			v148 := v147
			v161 := v160
			var v163 uint64
			if v53 == 0x1 {
				v163 = 1
			}
			v164 := 0x0 & v163
			var v168 uint64
			if v164 != 0 {
				v168 = v167
			} else {
				v168 = v166
			}
			var v169 uint64
			if v53 == 0x2 {
				v169 = 1
			}
			v170 := 0x0 & v169
			var v173 uint64
			if v170 != 0 {
				v173 = v172
			} else {
				v173 = v171
			}
			var v174 uint64
			if v53 == 0x3 {
				v174 = 1
			}
			v175 := 0x1 & v174
			var v178 uint64
			if v175 != 0 {
				v178 = v177
			} else {
				v178 = v176
			}
			var v179 uint64
			if v53 == 0x4 {
				v179 = 1
			}
			v180 := 0x0 & v179
			var v183 uint64
			if v180 != 0 {
				v183 = v182
			} else {
				v183 = v181
			}
			var v184 uint64
			if v53 == 0x5 {
				v184 = 1
			}
			v185 := 0x0 & v184
			var v188 uint64
			if v185 != 0 {
				v188 = v187
			} else {
				v188 = v186
			}
			var v189 uint64
			if v53 == 0x6 {
				v189 = 1
			}
			v190 := 0x0 & v189
			var v193 uint64
			if v190 != 0 {
				v193 = v192
			} else {
				v193 = v191
			}
			v194 := 0x0 & v163
			var v197 uint64
			if v194 != 0 {
				v197 = v196
			} else {
				v197 = v195
			}
			v200 := v198
			v203 := v201
			v206 := v204
			v209 := v207
			v212 := v210
			v215 := v213
			s162 = 0x0
			s56 = v56
			s53 = v53
			s20 = v20
			s32 = v32
			s68 = v68
			s78 = v78
			s90 = v90
			s101 = v101
			s113 = v113
			s125 = v125
			s136 = v136
			s148 = v148
			s161 = v161
			s168 = v168
			s173 = v173
			s178 = v178
			s183 = v183
			s188 = v188
			s193 = v193
			s197 = v197
			s200 = v200
			s203 = v203
			s206 = v206
			s209 = v209
			s212 = v212
			s215 = v215
			s39 = 0x0
		case 0x3:
			v20 := v19
			v32 := v24
			v56 := v0
			v68 := v66
			v78 := v76
			v90 := v88
			v101 := v99
			v113 := v111
			v125 := v123
			v136 := v134
			v148 := v146
			v161 := v159
			v168 := v166
			v173 := v171
			v178 := v176
			v183 := v182
			v188 := v186
			v193 := v191
			v197 := v195
			v200 := v198
			v203 := v201
			v206 := v204
			v209 := v208
			v212 := v211
			v215 := v214
			s162 = 0x0
			s56 = v56
			s53 = 0x4
			s20 = v20
			s32 = v32
			s68 = v68
			s78 = v78
			s90 = v90
			s101 = v101
			s113 = v113
			s125 = v125
			s136 = v136
			s148 = v148
			s161 = v161
			s168 = v168
			s173 = v173
			s178 = v178
			s183 = v183
			s188 = v188
			s193 = v193
			s197 = v197
			s200 = v200
			s203 = v203
			s206 = v206
			s209 = v209
			s212 = v212
			s215 = v215
			s39 = 0x0
		case 0x4:
			v20 := v19
			v32 := v31
			var v41 uint64
			if v34 != 0 {
				v41 = 0x5
			} else {
				v41 = 0x4
			}
			v44 := v41
			v45 := v44
			v49 := v45
			v50 := v49
			v53 := v50
			v56 := v0
			v68 := v67
			v78 := v77
			v90 := v89
			v101 := v100
			v113 := v112
			v125 := v124
			v136 := v135
			v148 := v147
			v161 := v160
			var v163 uint64
			if v53 == 0x1 {
				v163 = 1
			}
			v164 := 0x0 & v163
			var v168 uint64
			if v164 != 0 {
				v168 = v167
			} else {
				v168 = v166
			}
			var v169 uint64
			if v53 == 0x2 {
				v169 = 1
			}
			v170 := 0x0 & v169
			var v173 uint64
			if v170 != 0 {
				v173 = v172
			} else {
				v173 = v171
			}
			var v174 uint64
			if v53 == 0x3 {
				v174 = 1
			}
			v175 := 0x0 & v174
			var v178 uint64
			if v175 != 0 {
				v178 = v177
			} else {
				v178 = v176
			}
			var v179 uint64
			if v53 == 0x4 {
				v179 = 1
			}
			v180 := 0x0 & v179
			var v183 uint64
			if v180 != 0 {
				v183 = v182
			} else {
				v183 = v181
			}
			var v184 uint64
			if v53 == 0x5 {
				v184 = 1
			}
			v185 := 0x1 & v184
			var v188 uint64
			if v185 != 0 {
				v188 = v187
			} else {
				v188 = v186
			}
			var v189 uint64
			if v53 == 0x6 {
				v189 = 1
			}
			v190 := 0x0 & v189
			var v193 uint64
			if v190 != 0 {
				v193 = v192
			} else {
				v193 = v191
			}
			v194 := 0x0 & v163
			var v197 uint64
			if v194 != 0 {
				v197 = v196
			} else {
				v197 = v195
			}
			v200 := v198
			v203 := v201
			v206 := v204
			v209 := v207
			v212 := v210
			v215 := v213
			s162 = 0x0
			s56 = v56
			s53 = v53
			s20 = v20
			s32 = v32
			s68 = v68
			s78 = v78
			s90 = v90
			s101 = v101
			s113 = v113
			s125 = v125
			s136 = v136
			s148 = v148
			s161 = v161
			s168 = v168
			s173 = v173
			s178 = v178
			s183 = v183
			s188 = v188
			s193 = v193
			s197 = v197
			s200 = v200
			s203 = v203
			s206 = v206
			s209 = v209
			s212 = v212
			s215 = v215
			s39 = 0x0
		case 0x5:
			v20 := v19
			v32 := v31
			v40 := v37
			v44 := v40
			v45 := v44
			v49 := v45
			v50 := v49
			v53 := v50
			v56 := v55
			v68 := v66
			v78 := v76
			v90 := v88
			v101 := v99
			v113 := v111
			v125 := v123
			v136 := v134
			v148 := v146
			v161 := v159
			var v163 uint64
			if v53 == 0x1 {
				v163 = 1
			}
			v164 := 0x0 & v163
			var v168 uint64
			if v164 != 0 {
				v168 = v167
			} else {
				v168 = v166
			}
			var v169 uint64
			if v53 == 0x2 {
				v169 = 1
			}
			v170 := 0x0 & v169
			var v173 uint64
			if v170 != 0 {
				v173 = v172
			} else {
				v173 = v171
			}
			var v174 uint64
			if v53 == 0x3 {
				v174 = 1
			}
			v175 := 0x0 & v174
			var v178 uint64
			if v175 != 0 {
				v178 = v177
			} else {
				v178 = v176
			}
			var v179 uint64
			if v53 == 0x4 {
				v179 = 1
			}
			v180 := 0x0 & v179
			var v183 uint64
			if v180 != 0 {
				v183 = v182
			} else {
				v183 = v181
			}
			var v184 uint64
			if v53 == 0x5 {
				v184 = 1
			}
			v185 := 0x0 & v184
			var v188 uint64
			if v185 != 0 {
				v188 = v187
			} else {
				v188 = v186
			}
			var v189 uint64
			if v53 == 0x6 {
				v189 = 1
			}
			v190 := 0x1 & v189
			var v193 uint64
			if v190 != 0 {
				v193 = v192
			} else {
				v193 = v191
			}
			v194 := 0x1 & v163
			var v197 uint64
			if v194 != 0 {
				v197 = v196
			} else {
				v197 = v195
			}
			v200 := v198
			v203 := v201
			v206 := v204
			v209 := v207
			v212 := v210
			v215 := v213
			s162 = 0x0
			s56 = v56
			s53 = v53
			s20 = v20
			s32 = v32
			s68 = v68
			s78 = v78
			s90 = v90
			s101 = v101
			s113 = v113
			s125 = v125
			s136 = v136
			s148 = v148
			s161 = v161
			s168 = v168
			s173 = v173
			s178 = v178
			s183 = v183
			s188 = v188
			s193 = v193
			s197 = v197
			s200 = v200
			s203 = v203
			s206 = v206
			s209 = v209
			s212 = v212
			s215 = v215
			s39 = 0x1
		case 0x6:
			v20 := v19
			v32 := v31
			v56 := v0
			v68 := v66
			v78 := v76
			v90 := v88
			v101 := v99
			v113 := v111
			v125 := v123
			v136 := v134
			v148 := v146
			v161 := v159
			v168 := v166
			v173 := v171
			v178 := v176
			v183 := v181
			v188 := v186
			v193 := v191
			v197 := v195
			v200 := v198
			v203 := v201
			v206 := v204
			v209 := v207
			v212 := v210
			v215 := v213
			s162 = 0x1
			s56 = v56
			s53 = 0x6
			s20 = v20
			s32 = v32
			s68 = v68
			s78 = v78
			s90 = v90
			s101 = v101
			s113 = v113
			s125 = v125
			s136 = v136
			s148 = v148
			s161 = v161
			s168 = v168
			s173 = v173
			s178 = v178
			s183 = v183
			s188 = v188
			s193 = v193
			s197 = v197
			s200 = v200
			s203 = v203
			s206 = v206
			s209 = v209
			s212 = v212
			s215 = v215
			s39 = 0x0
		default:
			var v12 uint64
			if v10 == 0x1 {
				v12 = 1
			}
			var v20 uint64
			if v12 != 0 {
				v20 = 0xc
			} else {
				v20 = v19
			}
			var v26 uint64
			if v10 == 0x3 {
				v26 = 1
			}
			var v32 uint64
			if v26 != 0 {
				v32 = v24
			} else {
				v32 = v31
			}
			var v39 uint64
			if v10 == 0x5 {
				v39 = 1
			}
			var v40 uint64
			if v39 != 0 {
				v40 = v37
			} else {
				v40 = v10
			}
			var v41 uint64
			if v34 != 0 {
				v41 = 0x5
			} else {
				v41 = v10
			}
			var v43 uint64
			if v10 == 0x4 {
				v43 = 1
			}
			var v44 uint64
			if v43 != 0 {
				v44 = v41
			} else {
				v44 = v40
			}
			var v45 uint64
			if v26 != 0 {
				v45 = 0x4
			} else {
				v45 = v44
			}
			var v46 uint64
			if v33 != 0 {
				v46 = 0x3
			} else {
				v46 = v10
			}
			var v48 uint64
			if v10 == 0x2 {
				v48 = 1
			}
			var v49 uint64
			if v48 != 0 {
				v49 = v46
			} else {
				v49 = v45
			}
			var v50 uint64
			if v12 != 0 {
				v50 = 0x2
			} else {
				v50 = v49
			}
			var v52 uint64
			if v10 == 0x0 {
				v52 = 1
			}
			var v53 uint64
			if v52 != 0 {
				v53 = 0x1
			} else {
				v53 = v50
			}
			var v56 uint64
			if v39 != 0 {
				v56 = v55
			} else {
				v56 = v0
			}
			v57 := (v48 | v43)
			var v68 uint64
			if v57 != 0 {
				v68 = v67
			} else {
				v68 = v66
			}
			var v78 uint64
			if v57 != 0 {
				v78 = v77
			} else {
				v78 = v76
			}
			var v90 uint64
			if v57 != 0 {
				v90 = v89
			} else {
				v90 = v88
			}
			var v101 uint64
			if v57 != 0 {
				v101 = v100
			} else {
				v101 = v99
			}
			var v113 uint64
			if v57 != 0 {
				v113 = v112
			} else {
				v113 = v111
			}
			var v125 uint64
			if v57 != 0 {
				v125 = v124
			} else {
				v125 = v123
			}
			var v136 uint64
			if v57 != 0 {
				v136 = v135
			} else {
				v136 = v134
			}
			var v148 uint64
			if v57 != 0 {
				v148 = v147
			} else {
				v148 = v146
			}
			var v161 uint64
			if v57 != 0 {
				v161 = v160
			} else {
				v161 = v159
			}
			var v162 uint64
			if v10 == 0x6 {
				v162 = 1
			}
			var v163 uint64
			if v53 == 0x1 {
				v163 = 1
			}
			v164 := v52 & v163
			var v168 uint64
			if v164 != 0 {
				v168 = v167
			} else {
				v168 = v166
			}
			var v169 uint64
			if v53 == 0x2 {
				v169 = 1
			}
			v170 := v12 & v169
			var v173 uint64
			if v170 != 0 {
				v173 = v172
			} else {
				v173 = v171
			}
			var v174 uint64
			if v53 == 0x3 {
				v174 = 1
			}
			v175 := v48 & v174
			var v178 uint64
			if v175 != 0 {
				v178 = v177
			} else {
				v178 = v176
			}
			var v179 uint64
			if v53 == 0x4 {
				v179 = 1
			}
			v180 := v26 & v179
			var v183 uint64
			if v180 != 0 {
				v183 = v182
			} else {
				v183 = v181
			}
			var v184 uint64
			if v53 == 0x5 {
				v184 = 1
			}
			v185 := v43 & v184
			var v188 uint64
			if v185 != 0 {
				v188 = v187
			} else {
				v188 = v186
			}
			var v189 uint64
			if v53 == 0x6 {
				v189 = 1
			}
			v190 := v39 & v189
			var v193 uint64
			if v190 != 0 {
				v193 = v192
			} else {
				v193 = v191
			}
			v194 := v39 & v163
			var v197 uint64
			if v194 != 0 {
				v197 = v196
			} else {
				v197 = v195
			}
			var v200 uint64
			if v12 != 0 {
				v200 = v199
			} else {
				v200 = v198
			}
			var v203 uint64
			if v12 != 0 {
				v203 = v202
			} else {
				v203 = v201
			}
			var v206 uint64
			if v12 != 0 {
				v206 = v205
			} else {
				v206 = v204
			}
			var v209 uint64
			if v26 != 0 {
				v209 = v208
			} else {
				v209 = v207
			}
			var v212 uint64
			if v26 != 0 {
				v212 = v211
			} else {
				v212 = v210
			}
			var v215 uint64
			if v26 != 0 {
				v215 = v214
			} else {
				v215 = v213
			}
			s162 = v162
			s56 = v56
			s53 = v53
			s20 = v20
			s32 = v32
			s68 = v68
			s78 = v78
			s90 = v90
			s101 = v101
			s113 = v113
			s125 = v125
			s136 = v136
			s148 = v148
			s161 = v161
			s168 = v168
			s173 = v173
			s178 = v178
			s183 = v183
			s188 = v188
			s193 = v193
			s197 = v197
			s200 = v200
			s203 = v203
			s206 = v206
			s209 = v209
			s212 = v212
			s215 = v215
			s39 = v39
		}
		if s162 != 0 {
			break
		}
		if s39 != 0 {
			if addr := uint64(v0); addr < uint64(len(m1)) {
				m1[addr] = v159
			}
		}
		v0 = s56
		v10 = s53
		v14 = s20
		v27 = s32
		v66 = s68
		v76 = s78
		v88 = s90
		v99 = s101
		v111 = s113
		v123 = s125
		v134 = s136
		v146 = s148
		v159 = s161
		v166 = s168
		v171 = s173
		v176 = s178
		v181 = s183
		v186 = s188
		v191 = s193
		v195 = s197
		v198 = s200
		v201 = s203
		v204 = s206
		v207 = s209
		v210 = s212
		v213 = s215
	}
	vals[0] = v0
	vals[10] = v10
	vals[14] = v14
	vals[27] = v27
	vals[66] = v66
	vals[76] = v76
	vals[88] = v88
	vals[99] = v99
	vals[111] = v111
	vals[123] = v123
	vals[134] = v134
	vals[146] = v146
	vals[159] = v159
	vals[166] = v166
	vals[171] = v171
	vals[176] = v176
	vals[181] = v181
	vals[186] = v186
	vals[191] = v191
	vals[195] = v195
	vals[198] = v198
	vals[201] = v201
	vals[204] = v204
	vals[207] = v207
	vals[210] = v210
	vals[213] = v213
	return n
}

func run_cjpeg_pruned(vals []uint64, mems [][]uint64, max uint64) uint64 {
	_ = vals[191]
	m0 := mems[0]
	m1 := mems[1]
	v0 := vals[0]
	v1 := vals[1]
	v13 := vals[13]
	v21 := vals[21]
	v53 := vals[53]
	v66 := vals[66]
	v73 := vals[73]
	v81 := vals[81]
	v88 := vals[88]
	v96 := vals[96]
	v104 := vals[104]
	v111 := vals[111]
	v119 := vals[119]
	v138 := vals[138]
	v144 := vals[144]
	v149 := vals[149]
	v154 := vals[154]
	v159 := vals[159]
	v164 := vals[164]
	v169 := vals[169]
	v173 := vals[173]
	v176 := vals[176]
	v179 := vals[179]
	v182 := vals[182]
	v185 := vals[185]
	v188 := vals[188]
	var n uint64
	for ; n < max; n++ {
		v5 := (v0 + 0x1) & 0x7ff
		var v15 uint64
		if v13 == 0x0 {
			v15 = 1
		}
		var v23 uint64
		if v21 == 0x0 {
			v23 = 1
		}
		var v26 uint64
		if addr := uint64(0x0); addr < uint64(len(m0)) {
			v26 = m0[addr] & 0x7ff
		}
		var v27 uint64
		if v26 <= v0 {
			v27 = 1
		}
		var v29 uint64
		if v27 != 0 {
			v29 = 0x6
		} else {
			v29 = 0x1
		}
		var v37 uint64
		if v13 != 0x0 {
			v37 = 1
		}
		v39 := (v13 - 0x1) & 0xf
		var v40 uint64
		if v37 != 0 {
			v40 = v39
		} else {
			v40 = v13
		}
		var v42 uint64
		if addr := uint64(v0); addr < uint64(len(m0)) {
			v42 = m0[addr] & 0x3fffff
		}
		v44 := v42 & 0x3f
		v45 := (v44 | 0x0)
		v47 := (v45 + 0x3) & 0x7f
		var v48 uint64
		if v21 != 0x0 {
			v48 = 1
		}
		v50 := (v21 - 0x1) & 0x7f
		var v51 uint64
		if v48 != 0 {
			v51 = v50
		} else {
			v51 = v21
		}
		v56 := (v42 >> 6)
		v58 := v56 & 0xffff
		v60 := (v58 | 0x0)
		v62 := (v60 + 0x1) & 0xffffffffff
		v63 := (v60 * v62) & 0xffffffffff
		v64 := (v53 + v63) & 0xffffffffff
		v67 := (v60 << 1) & 0xffffffffff
		v69 := (v67 + 0x3) & 0xffffffffff
		v70 := (v67 * v69) & 0xffffffffff
		v71 := (v66 + v70) & 0xffffffffff
		v75 := (v60 << 2) & 0xffffffffff
		v77 := (v75 + 0x5) & 0xffffffffff
		v78 := (v75 * v77) & 0xffffffffff
		v79 := (v73 + v78) & 0xffffffffff
		v82 := (v60 << 3) & 0xffffffffff
		v84 := (v82 + 0x7) & 0xffffffffff
		v85 := (v82 * v84) & 0xffffffffff
		v86 := (v81 + v85) & 0xffffffffff
		v90 := (v60 << 4) & 0xffffffffff
		v92 := (v90 + 0x9) & 0xffffffffff
		v93 := (v90 * v92) & 0xffffffffff
		v94 := (v88 + v93) & 0xffffffffff
		v98 := (v60 << 5) & 0xffffffffff
		v100 := (v98 + 0xb) & 0xffffffffff
		v101 := (v98 * v100) & 0xffffffffff
		v102 := (v96 + v101) & 0xffffffffff
		v105 := (v60 << 6) & 0xffffffffff
		v107 := (v105 + 0xd) & 0xffffffffff
		v108 := (v105 * v107) & 0xffffffffff
		v109 := (v104 + v108) & 0xffffffffff
		v113 := (v60 << 7) & 0xffffffffff
		v115 := (v113 + 0xf) & 0xffffffffff
		v116 := (v113 * v115) & 0xffffffffff
		v117 := (v111 + v116) & 0xffffffffff
		v120 := (v58 * v58) & 0xffffffff
		v121 := (v58 << 4) & 0xffff
		v122 := (v120 + v121) & 0xffffffff
		v124 := (v44 + 0x1) & 0x3f
		v125 := (v122 * v124) & 0xffffffff
		v126 := (v53 ^ v66)
		v127 := (v126 ^ v73)
		v128 := (v127 ^ v81)
		v129 := (v128 ^ v88)
		v130 := (v129 ^ v96)
		v131 := (v130 ^ v104)
		v132 := (v131 ^ v111)
		v134 := v132 & 0xffffffff
		v135 := (v125 ^ v134)
		v136 := (v119 + v135) & 0xffffffff
		v142 := (v138 + 0x1) & 0xffffff
		v147 := (v144 + 0x1) & 0xffffff
		v152 := (v149 + 0x1) & 0xffffff
		v157 := (v154 + 0x1) & 0xffffff
		v162 := (v159 + 0x1) & 0xffffff
		v167 := (v164 + 0x1) & 0xffffff
		v171 := (v169 + 0x1) & 0xffffff
		v174 := (v173 + 0x1) & 0xffffff
		v177 := (v176 + 0xc) & 0xffffff
		v180 := (v179 + v13) & 0xffffff
		v183 := (v182 + 0x1) & 0xffffff
		v186 := (v185 + v47) & 0xffffff
		v189 := (v188 + v21) & 0xffffff
		var s3, s6, s35, s41, s52, s65, s72, s80, s87, s95, s103, s110, s118, s137, s143, s148, s153, s158, s163, s168, s172, s175, s178, s181, s184, s187, s190, s191 uint64
		switch v1 {
		case 0x0:
			v6 := v0
			v41 := v40
			v52 := v51
			v65 := v53
			v72 := v66
			v80 := v73
			v87 := v81
			v95 := v88
			v103 := v96
			v110 := v104
			v118 := v111
			v137 := v119
			v143 := v142
			v148 := v144
			v153 := v149
			v158 := v154
			v163 := v159
			v168 := v164
			v172 := v169
			v175 := v173
			v178 := v176
			v181 := v179
			v184 := v182
			v187 := v185
			v190 := v188
			s191 = 0x0
			s6 = v6
			s35 = 0x1
			s41 = v41
			s52 = v52
			s65 = v65
			s72 = v72
			s80 = v80
			s87 = v87
			s95 = v95
			s103 = v103
			s110 = v110
			s118 = v118
			s137 = v137
			s143 = v143
			s148 = v148
			s153 = v153
			s158 = v158
			s163 = v163
			s168 = v168
			s172 = v172
			s175 = v175
			s178 = v178
			s181 = v181
			s184 = v184
			s187 = v187
			s190 = v190
			s3 = 0x0
		case 0x1:
			v6 := v0
			v52 := v51
			v65 := v53
			v72 := v66
			v80 := v73
			v87 := v81
			v95 := v88
			v103 := v96
			v110 := v104
			v118 := v111
			v137 := v119
			v143 := v138
			v148 := v147
			v153 := v149
			v158 := v154
			v163 := v159
			v168 := v164
			v172 := v169
			v175 := v174
			v178 := v177
			v181 := v180
			v184 := v182
			v187 := v185
			v190 := v188
			s191 = 0x0
			s6 = v6
			s35 = 0x2
			s41 = 0xc
			s52 = v52
			s65 = v65
			s72 = v72
			s80 = v80
			s87 = v87
			s95 = v95
			s103 = v103
			s110 = v110
			s118 = v118
			s137 = v137
			s143 = v143
			s148 = v148
			s153 = v153
			s158 = v158
			s163 = v163
			s168 = v168
			s172 = v172
			s175 = v175
			s178 = v178
			s181 = v181
			s184 = v184
			s187 = v187
			s190 = v190
			s3 = 0x0
		case 0x2:
			v6 := v0
			var v17 uint64
			if v15 != 0 {
				v17 = 0x3
			} else {
				v17 = 0x2
			}
			v33 := v17
			v34 := v33
			v35 := v34
			v41 := v40
			v52 := v51
			v65 := v64
			v72 := v71
			v80 := v79
			v87 := v86
			v95 := v94
			v103 := v102
			v110 := v109
			v118 := v117
			v137 := v136
			var v139 uint64
			if v35 == 0x1 {
				v139 = 1
			}
			v140 := 0x0 & v139
			var v143 uint64
			if v140 != 0 {
				v143 = v142
			} else {
				v143 = v138
			}
			var v145 uint64
			if v35 == 0x2 {
				v145 = 1
			}
			v146 := 0x0 & v145
			var v148 uint64
			if v146 != 0 {
				v148 = v147
			} else {
				v148 = v144
			}
			var v150 uint64
			if v35 == 0x3 {
				v150 = 1
			}
			v151 := 0x1 & v150
			var v153 uint64
			if v151 != 0 {
				v153 = v152
			} else {
				v153 = v149
			}
			var v155 uint64
			if v35 == 0x4 {
				v155 = 1
			}
			v156 := 0x0 & v155
			var v158 uint64
			if v156 != 0 {
				v158 = v157
			} else {
				v158 = v154
			}
			var v160 uint64
			if v35 == 0x5 {
				v160 = 1
			}
			v161 := 0x0 & v160
			var v163 uint64
			if v161 != 0 {
				v163 = v162
			} else {
				v163 = v159
			}
			var v165 uint64
			if v35 == 0x6 {
				v165 = 1
			}
			v166 := 0x0 & v165
			var v168 uint64
			if v166 != 0 {
				v168 = v167
			} else {
				v168 = v164
			}
			v170 := 0x0 & v139
			var v172 uint64
			if v170 != 0 {
				v172 = v171
			} else {
				v172 = v169
			}
			v175 := v173
			v178 := v176
			v181 := v179
			v184 := v182
			v187 := v185
			v190 := v188
			s191 = 0x0
			s6 = v6
			s35 = v35
			s41 = v41
			s52 = v52
			s65 = v65
			s72 = v72
			s80 = v80
			s87 = v87
			s95 = v95
			s103 = v103
			s110 = v110
			s118 = v118
			s137 = v137
			s143 = v143
			s148 = v148
			s153 = v153
			s158 = v158
			s163 = v163
			s168 = v168
			s172 = v172
			s175 = v175
			s178 = v178
			s181 = v181
			s184 = v184
			s187 = v187
			s190 = v190
			s3 = 0x0
		case 0x3:
			v6 := v0
			v41 := v40
			v52 := v47
			v65 := v53
			v72 := v66
			v80 := v73
			v87 := v81
			v95 := v88
			v103 := v96
			v110 := v104
			v118 := v111
			v137 := v119
			v143 := v138
			v148 := v144
			v153 := v149
			v158 := v157
			v163 := v159
			v168 := v164
			v172 := v169
			v175 := v173
			v178 := v176
			v181 := v179
			v184 := v183
			v187 := v186
			v190 := v189
			s191 = 0x0
			s6 = v6
			s35 = 0x4
			s41 = v41
			s52 = v52
			s65 = v65
			s72 = v72
			s80 = v80
			s87 = v87
			s95 = v95
			s103 = v103
			s110 = v110
			s118 = v118
			s137 = v137
			s143 = v143
			s148 = v148
			s153 = v153
			s158 = v158
			s163 = v163
			s168 = v168
			s172 = v172
			s175 = v175
			s178 = v178
			s181 = v181
			s184 = v184
			s187 = v187
			s190 = v190
			s3 = 0x0
		case 0x4:
			v6 := v0
			var v24 uint64
			if v23 != 0 {
				v24 = 0x5
			} else {
				v24 = 0x4
			}
			v31 := v24
			v32 := v31
			v33 := v32
			v34 := v33
			v35 := v34
			v41 := v40
			v52 := v51
			v65 := v64
			v72 := v71
			v80 := v79
			v87 := v86
			v95 := v94
			v103 := v102
			v110 := v109
			v118 := v117
			v137 := v136
			var v139 uint64
			if v35 == 0x1 {
				v139 = 1
			}
			v140 := 0x0 & v139
			var v143 uint64
			if v140 != 0 {
				v143 = v142
			} else {
				v143 = v138
			}
			var v145 uint64
			if v35 == 0x2 {
				v145 = 1
			}
			v146 := 0x0 & v145
			var v148 uint64
			if v146 != 0 {
				v148 = v147
			} else {
				v148 = v144
			}
			var v150 uint64
			if v35 == 0x3 {
				v150 = 1
			}
			v151 := 0x0 & v150
			var v153 uint64
			if v151 != 0 {
				v153 = v152
			} else {
				v153 = v149
			}
			var v155 uint64
			if v35 == 0x4 {
				v155 = 1
			}
			v156 := 0x0 & v155
			var v158 uint64
			if v156 != 0 {
				v158 = v157
			} else {
				v158 = v154
			}
			var v160 uint64
			if v35 == 0x5 {
				v160 = 1
			}
			v161 := 0x1 & v160
			var v163 uint64
			if v161 != 0 {
				v163 = v162
			} else {
				v163 = v159
			}
			var v165 uint64
			if v35 == 0x6 {
				v165 = 1
			}
			v166 := 0x0 & v165
			var v168 uint64
			if v166 != 0 {
				v168 = v167
			} else {
				v168 = v164
			}
			v170 := 0x0 & v139
			var v172 uint64
			if v170 != 0 {
				v172 = v171
			} else {
				v172 = v169
			}
			v175 := v173
			v178 := v176
			v181 := v179
			v184 := v182
			v187 := v185
			v190 := v188
			s191 = 0x0
			s6 = v6
			s35 = v35
			s41 = v41
			s52 = v52
			s65 = v65
			s72 = v72
			s80 = v80
			s87 = v87
			s95 = v95
			s103 = v103
			s110 = v110
			s118 = v118
			s137 = v137
			s143 = v143
			s148 = v148
			s153 = v153
			s158 = v158
			s163 = v163
			s168 = v168
			s172 = v172
			s175 = v175
			s178 = v178
			s181 = v181
			s184 = v184
			s187 = v187
			s190 = v190
			s3 = 0x0
		case 0x5:
			v6 := v5
			v30 := v29
			v31 := v30
			v32 := v31
			v33 := v32
			v34 := v33
			v35 := v34
			v41 := v40
			v52 := v51
			v65 := v53
			v72 := v66
			v80 := v73
			v87 := v81
			v95 := v88
			v103 := v96
			v110 := v104
			v118 := v111
			v137 := v119
			var v139 uint64
			if v35 == 0x1 {
				v139 = 1
			}
			v140 := 0x0 & v139
			var v143 uint64
			if v140 != 0 {
				v143 = v142
			} else {
				v143 = v138
			}
			var v145 uint64
			if v35 == 0x2 {
				v145 = 1
			}
			v146 := 0x0 & v145
			var v148 uint64
			if v146 != 0 {
				v148 = v147
			} else {
				v148 = v144
			}
			var v150 uint64
			if v35 == 0x3 {
				v150 = 1
			}
			v151 := 0x0 & v150
			var v153 uint64
			if v151 != 0 {
				v153 = v152
			} else {
				v153 = v149
			}
			var v155 uint64
			if v35 == 0x4 {
				v155 = 1
			}
			v156 := 0x0 & v155
			var v158 uint64
			if v156 != 0 {
				v158 = v157
			} else {
				v158 = v154
			}
			var v160 uint64
			if v35 == 0x5 {
				v160 = 1
			}
			v161 := 0x0 & v160
			var v163 uint64
			if v161 != 0 {
				v163 = v162
			} else {
				v163 = v159
			}
			var v165 uint64
			if v35 == 0x6 {
				v165 = 1
			}
			v166 := 0x1 & v165
			var v168 uint64
			if v166 != 0 {
				v168 = v167
			} else {
				v168 = v164
			}
			v170 := 0x1 & v139
			var v172 uint64
			if v170 != 0 {
				v172 = v171
			} else {
				v172 = v169
			}
			v175 := v173
			v178 := v176
			v181 := v179
			v184 := v182
			v187 := v185
			v190 := v188
			s191 = 0x0
			s6 = v6
			s35 = v35
			s41 = v41
			s52 = v52
			s65 = v65
			s72 = v72
			s80 = v80
			s87 = v87
			s95 = v95
			s103 = v103
			s110 = v110
			s118 = v118
			s137 = v137
			s143 = v143
			s148 = v148
			s153 = v153
			s158 = v158
			s163 = v163
			s168 = v168
			s172 = v172
			s175 = v175
			s178 = v178
			s181 = v181
			s184 = v184
			s187 = v187
			s190 = v190
			s3 = 0x1
		case 0x6:
			v6 := v0
			v41 := v40
			v52 := v51
			v65 := v53
			v72 := v66
			v80 := v73
			v87 := v81
			v95 := v88
			v103 := v96
			v110 := v104
			v118 := v111
			v137 := v119
			v143 := v138
			v148 := v144
			v153 := v149
			v158 := v154
			v163 := v159
			v168 := v164
			v172 := v169
			v175 := v173
			v178 := v176
			v181 := v179
			v184 := v182
			v187 := v185
			v190 := v188
			s191 = 0x1
			s6 = v6
			s35 = 0x6
			s41 = v41
			s52 = v52
			s65 = v65
			s72 = v72
			s80 = v80
			s87 = v87
			s95 = v95
			s103 = v103
			s110 = v110
			s118 = v118
			s137 = v137
			s143 = v143
			s148 = v148
			s153 = v153
			s158 = v158
			s163 = v163
			s168 = v168
			s172 = v172
			s175 = v175
			s178 = v178
			s181 = v181
			s184 = v184
			s187 = v187
			s190 = v190
			s3 = 0x0
		default:
			var v3 uint64
			if v1 == 0x5 {
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
			var v17 uint64
			if v15 != 0 {
				v17 = 0x3
			} else {
				v17 = v1
			}
			var v18 uint64
			if v1 == 0x3 {
				v18 = 1
			}
			var v20 uint64
			if v1 == 0x4 {
				v20 = 1
			}
			var v24 uint64
			if v23 != 0 {
				v24 = 0x5
			} else {
				v24 = v1
			}
			var v30 uint64
			if v3 != 0 {
				v30 = v29
			} else {
				v30 = v1
			}
			var v31 uint64
			if v20 != 0 {
				v31 = v24
			} else {
				v31 = v30
			}
			var v32 uint64
			if v18 != 0 {
				v32 = 0x4
			} else {
				v32 = v31
			}
			var v33 uint64
			if v12 != 0 {
				v33 = v17
			} else {
				v33 = v32
			}
			var v34 uint64
			if v10 != 0 {
				v34 = 0x2
			} else {
				v34 = v33
			}
			var v35 uint64
			if v8 != 0 {
				v35 = 0x1
			} else {
				v35 = v34
			}
			var v41 uint64
			if v10 != 0 {
				v41 = 0xc
			} else {
				v41 = v40
			}
			var v52 uint64
			if v18 != 0 {
				v52 = v47
			} else {
				v52 = v51
			}
			v54 := (v12 | v20)
			var v65 uint64
			if v54 != 0 {
				v65 = v64
			} else {
				v65 = v53
			}
			var v72 uint64
			if v54 != 0 {
				v72 = v71
			} else {
				v72 = v66
			}
			var v80 uint64
			if v54 != 0 {
				v80 = v79
			} else {
				v80 = v73
			}
			var v87 uint64
			if v54 != 0 {
				v87 = v86
			} else {
				v87 = v81
			}
			var v95 uint64
			if v54 != 0 {
				v95 = v94
			} else {
				v95 = v88
			}
			var v103 uint64
			if v54 != 0 {
				v103 = v102
			} else {
				v103 = v96
			}
			var v110 uint64
			if v54 != 0 {
				v110 = v109
			} else {
				v110 = v104
			}
			var v118 uint64
			if v54 != 0 {
				v118 = v117
			} else {
				v118 = v111
			}
			var v137 uint64
			if v54 != 0 {
				v137 = v136
			} else {
				v137 = v119
			}
			var v139 uint64
			if v35 == 0x1 {
				v139 = 1
			}
			v140 := v8 & v139
			var v143 uint64
			if v140 != 0 {
				v143 = v142
			} else {
				v143 = v138
			}
			var v145 uint64
			if v35 == 0x2 {
				v145 = 1
			}
			v146 := v10 & v145
			var v148 uint64
			if v146 != 0 {
				v148 = v147
			} else {
				v148 = v144
			}
			var v150 uint64
			if v35 == 0x3 {
				v150 = 1
			}
			v151 := v12 & v150
			var v153 uint64
			if v151 != 0 {
				v153 = v152
			} else {
				v153 = v149
			}
			var v155 uint64
			if v35 == 0x4 {
				v155 = 1
			}
			v156 := v18 & v155
			var v158 uint64
			if v156 != 0 {
				v158 = v157
			} else {
				v158 = v154
			}
			var v160 uint64
			if v35 == 0x5 {
				v160 = 1
			}
			v161 := v20 & v160
			var v163 uint64
			if v161 != 0 {
				v163 = v162
			} else {
				v163 = v159
			}
			var v165 uint64
			if v35 == 0x6 {
				v165 = 1
			}
			v166 := v3 & v165
			var v168 uint64
			if v166 != 0 {
				v168 = v167
			} else {
				v168 = v164
			}
			v170 := v3 & v139
			var v172 uint64
			if v170 != 0 {
				v172 = v171
			} else {
				v172 = v169
			}
			var v175 uint64
			if v10 != 0 {
				v175 = v174
			} else {
				v175 = v173
			}
			var v178 uint64
			if v10 != 0 {
				v178 = v177
			} else {
				v178 = v176
			}
			var v181 uint64
			if v10 != 0 {
				v181 = v180
			} else {
				v181 = v179
			}
			var v184 uint64
			if v18 != 0 {
				v184 = v183
			} else {
				v184 = v182
			}
			var v187 uint64
			if v18 != 0 {
				v187 = v186
			} else {
				v187 = v185
			}
			var v190 uint64
			if v18 != 0 {
				v190 = v189
			} else {
				v190 = v188
			}
			var v191 uint64
			if v1 == 0x6 {
				v191 = 1
			}
			s191 = v191
			s6 = v6
			s35 = v35
			s41 = v41
			s52 = v52
			s65 = v65
			s72 = v72
			s80 = v80
			s87 = v87
			s95 = v95
			s103 = v103
			s110 = v110
			s118 = v118
			s137 = v137
			s143 = v143
			s148 = v148
			s153 = v153
			s158 = v158
			s163 = v163
			s168 = v168
			s172 = v172
			s175 = v175
			s178 = v178
			s181 = v181
			s184 = v184
			s187 = v187
			s190 = v190
			s3 = v3
		}
		if s191 != 0 {
			break
		}
		if s3 != 0 {
			if addr := uint64(v0); addr < uint64(len(m1)) {
				m1[addr] = v119
			}
		}
		v0 = s6
		v1 = s35
		v13 = s41
		v21 = s52
		v53 = s65
		v66 = s72
		v73 = s80
		v81 = s87
		v88 = s95
		v96 = s103
		v104 = s110
		v111 = s118
		v119 = s137
		v138 = s143
		v144 = s148
		v149 = s153
		v154 = s158
		v159 = s163
		v164 = s168
		v169 = s172
		v173 = s175
		v176 = s178
		v179 = s181
		v182 = s184
		v185 = s187
		v188 = s190
	}
	vals[0] = v0
	vals[1] = v1
	vals[13] = v13
	vals[21] = v21
	vals[53] = v53
	vals[66] = v66
	vals[73] = v73
	vals[81] = v81
	vals[88] = v88
	vals[96] = v96
	vals[104] = v104
	vals[111] = v111
	vals[119] = v119
	vals[138] = v138
	vals[144] = v144
	vals[149] = v149
	vals[154] = v154
	vals[159] = v159
	vals[164] = v164
	vals[169] = v169
	vals[173] = v173
	vals[176] = v176
	vals[179] = v179
	vals[182] = v182
	vals[185] = v185
	vals[188] = v188
	return n
}

func run_cjpeg_slice_all(vals []uint64, mems [][]uint64, max uint64) uint64 {
	_ = vals[86]
	m0 := mems[0]
	v0 := vals[0]
	v15 := vals[15]
	v28 := vals[28]
	v30 := vals[30]
	v40 := vals[40]
	v44 := vals[44]
	v45 := vals[45]
	v49 := vals[49]
	v52 := vals[52]
	v57 := vals[57]
	v62 := vals[62]
	v67 := vals[67]
	v72 := vals[72]
	v77 := vals[77]
	v82 := vals[82]
	var n uint64
	for ; n < max; n++ {
		var v14 uint64
		if addr := uint64(0x0); addr < uint64(len(m0)) {
			v14 = m0[addr] & 0x7ff
		}
		var v16 uint64
		if v14 <= v15 {
			v16 = 1
		}
		var v18 uint64
		if v16 != 0 {
			v18 = 0x6
		} else {
			v18 = 0x1
		}
		v26 := (v15 + 0x1) & 0x7ff
		var v31 uint64
		if addr := uint64(v15); addr < uint64(len(m0)) {
			v31 = m0[addr] & 0x3fffff
		}
		v33 := v31 & 0x3f
		v35 := (v33 | 0x0)
		v37 := (v35 + 0x3) & 0x7f
		v38 := (v30 + v37) & 0xffffff
		v42 := (v40 + 0x1) & 0xffffff
		v47 := (v45 + 0xc) & 0xffffff
		v50 := (v49 + 0x1) & 0xffffff
		v55 := (v52 + 0x1) & 0xffffff
		v60 := (v57 + 0x1) & 0xffffff
		v65 := (v62 + 0x1) & 0xffffff
		v70 := (v67 + 0x1) & 0xffffff
		v75 := (v72 + 0x1) & 0xffffff
		v80 := (v77 + 0x1) & 0xffffff
		v84 := (v82 + 0x1) & 0xffffff
		var s24, s27, s39, s43, s48, s51, s56, s61, s66, s71, s76, s81, s85, s86 uint64
		switch v0 {
		case 0x0:
			v27 := v15
			v39 := v30
			v43 := v40
			v48 := v45
			v51 := v49
			v56 := v52
			v61 := v57
			v66 := v62
			v71 := v67
			v76 := v72
			v81 := v77
			v85 := v84
			s86 = 0x0
			s24 = 0x1
			s27 = v27
			s39 = v39
			s43 = v43
			s48 = v48
			s51 = v51
			s56 = v56
			s61 = v61
			s66 = v66
			s71 = v71
			s76 = v76
			s81 = v81
			s85 = v85
		case 0x1:
			v27 := v15
			v39 := v30
			v43 := v40
			v48 := v47
			v51 := v50
			v56 := v52
			v61 := v57
			v66 := v62
			v71 := v67
			v76 := v72
			v81 := v80
			v85 := v82
			s86 = 0x0
			s24 = 0x2
			s27 = v27
			s39 = v39
			s43 = v43
			s48 = v48
			s51 = v51
			s56 = v56
			s61 = v61
			s66 = v66
			s71 = v71
			s76 = v76
			s81 = v81
			s85 = v85
		case 0x2:
			v27 := v15
			v39 := v30
			v43 := v40
			v48 := v45
			v51 := v49
			v56 := v52
			v61 := v57
			v66 := v62
			v71 := v67
			v76 := v75
			v81 := v77
			v85 := v82
			s86 = 0x0
			s24 = 0x3
			s27 = v27
			s39 = v39
			s43 = v43
			s48 = v48
			s51 = v51
			s56 = v56
			s61 = v61
			s66 = v66
			s71 = v71
			s76 = v76
			s81 = v81
			s85 = v85
		case 0x3:
			v27 := v15
			v39 := v38
			v43 := v42
			v48 := v45
			v51 := v49
			v56 := v52
			v61 := v57
			v66 := v62
			v71 := v70
			v76 := v72
			v81 := v77
			v85 := v82
			s86 = 0x0
			s24 = 0x4
			s27 = v27
			s39 = v39
			s43 = v43
			s48 = v48
			s51 = v51
			s56 = v56
			s61 = v61
			s66 = v66
			s71 = v71
			s76 = v76
			s81 = v81
			s85 = v85
		case 0x4:
			v27 := v15
			v39 := v30
			v43 := v40
			v48 := v45
			v51 := v49
			v56 := v52
			v61 := v57
			v66 := v65
			v71 := v67
			v76 := v72
			v81 := v77
			v85 := v82
			s86 = 0x0
			s24 = 0x5
			s27 = v27
			s39 = v39
			s43 = v43
			s48 = v48
			s51 = v51
			s56 = v56
			s61 = v61
			s66 = v66
			s71 = v71
			s76 = v76
			s81 = v81
			s85 = v85
		case 0x5:
			v19 := v18
			v20 := v19
			v21 := v20
			v22 := v21
			v23 := v22
			v24 := v23
			v27 := v26
			v39 := v30
			v43 := v40
			v48 := v45
			v51 := v49
			var v53 uint64
			if v24 == 0x1 {
				v53 = 1
			}
			v54 := 0x1 & v53
			var v56 uint64
			if v54 != 0 {
				v56 = v55
			} else {
				v56 = v52
			}
			var v58 uint64
			if v24 == 0x6 {
				v58 = 1
			}
			v59 := 0x1 & v58
			var v61 uint64
			if v59 != 0 {
				v61 = v60
			} else {
				v61 = v57
			}
			var v63 uint64
			if v24 == 0x5 {
				v63 = 1
			}
			v64 := 0x0 & v63
			var v66 uint64
			if v64 != 0 {
				v66 = v65
			} else {
				v66 = v62
			}
			var v68 uint64
			if v24 == 0x4 {
				v68 = 1
			}
			v69 := 0x0 & v68
			var v71 uint64
			if v69 != 0 {
				v71 = v70
			} else {
				v71 = v67
			}
			var v73 uint64
			if v24 == 0x3 {
				v73 = 1
			}
			v74 := 0x0 & v73
			var v76 uint64
			if v74 != 0 {
				v76 = v75
			} else {
				v76 = v72
			}
			var v78 uint64
			if v24 == 0x2 {
				v78 = 1
			}
			v79 := 0x0 & v78
			var v81 uint64
			if v79 != 0 {
				v81 = v80
			} else {
				v81 = v77
			}
			v83 := 0x0 & v53
			var v85 uint64
			if v83 != 0 {
				v85 = v84
			} else {
				v85 = v82
			}
			s86 = 0x0
			s24 = v24
			s27 = v27
			s39 = v39
			s43 = v43
			s48 = v48
			s51 = v51
			s56 = v56
			s61 = v61
			s66 = v66
			s71 = v71
			s76 = v76
			s81 = v81
			s85 = v85
		case 0x6:
			v27 := v15
			v39 := v30
			v43 := v40
			v48 := v45
			v51 := v49
			v56 := v52
			v61 := v57
			v66 := v62
			v71 := v67
			v76 := v72
			v81 := v77
			v85 := v82
			s86 = 0x1
			s24 = 0x6
			s27 = v27
			s39 = v39
			s43 = v43
			s48 = v48
			s51 = v51
			s56 = v56
			s61 = v61
			s66 = v66
			s71 = v71
			s76 = v76
			s81 = v81
			s85 = v85
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
			var v10 uint64
			if v0 == 0x4 {
				v10 = 1
			}
			var v12 uint64
			if v0 == 0x5 {
				v12 = 1
			}
			var v19 uint64
			if v12 != 0 {
				v19 = v18
			} else {
				v19 = v0
			}
			var v20 uint64
			if v10 != 0 {
				v20 = 0x5
			} else {
				v20 = v19
			}
			var v21 uint64
			if v8 != 0 {
				v21 = 0x4
			} else {
				v21 = v20
			}
			var v22 uint64
			if v6 != 0 {
				v22 = 0x3
			} else {
				v22 = v21
			}
			var v23 uint64
			if v4 != 0 {
				v23 = 0x2
			} else {
				v23 = v22
			}
			var v24 uint64
			if v2 != 0 {
				v24 = 0x1
			} else {
				v24 = v23
			}
			var v27 uint64
			if v12 != 0 {
				v27 = v26
			} else {
				v27 = v15
			}
			var v39 uint64
			if v8 != 0 {
				v39 = v38
			} else {
				v39 = v30
			}
			var v43 uint64
			if v8 != 0 {
				v43 = v42
			} else {
				v43 = v40
			}
			var v48 uint64
			if v4 != 0 {
				v48 = v47
			} else {
				v48 = v45
			}
			var v51 uint64
			if v4 != 0 {
				v51 = v50
			} else {
				v51 = v49
			}
			var v53 uint64
			if v24 == 0x1 {
				v53 = 1
			}
			v54 := v12 & v53
			var v56 uint64
			if v54 != 0 {
				v56 = v55
			} else {
				v56 = v52
			}
			var v58 uint64
			if v24 == 0x6 {
				v58 = 1
			}
			v59 := v12 & v58
			var v61 uint64
			if v59 != 0 {
				v61 = v60
			} else {
				v61 = v57
			}
			var v63 uint64
			if v24 == 0x5 {
				v63 = 1
			}
			v64 := v10 & v63
			var v66 uint64
			if v64 != 0 {
				v66 = v65
			} else {
				v66 = v62
			}
			var v68 uint64
			if v24 == 0x4 {
				v68 = 1
			}
			v69 := v8 & v68
			var v71 uint64
			if v69 != 0 {
				v71 = v70
			} else {
				v71 = v67
			}
			var v73 uint64
			if v24 == 0x3 {
				v73 = 1
			}
			v74 := v6 & v73
			var v76 uint64
			if v74 != 0 {
				v76 = v75
			} else {
				v76 = v72
			}
			var v78 uint64
			if v24 == 0x2 {
				v78 = 1
			}
			v79 := v4 & v78
			var v81 uint64
			if v79 != 0 {
				v81 = v80
			} else {
				v81 = v77
			}
			v83 := v2 & v53
			var v85 uint64
			if v83 != 0 {
				v85 = v84
			} else {
				v85 = v82
			}
			var v86 uint64
			if v0 == 0x6 {
				v86 = 1
			}
			s86 = v86
			s24 = v24
			s27 = v27
			s39 = v39
			s43 = v43
			s48 = v48
			s51 = v51
			s56 = v56
			s61 = v61
			s66 = v66
			s71 = v71
			s76 = v76
			s81 = v81
			s85 = v85
		}
		if s86 != 0 {
			break
		}
		v0 = s24
		v15 = s27
		v28 = 0x0
		v30 = s39
		v40 = s43
		v44 = 0x0
		v45 = s48
		v49 = s51
		v52 = s56
		v57 = s61
		v62 = s66
		v67 = s71
		v72 = s76
		v77 = s81
		v82 = s85
	}
	vals[0] = v0
	vals[15] = v15
	vals[28] = v28
	vals[30] = v30
	vals[40] = v40
	vals[44] = v44
	vals[45] = v45
	vals[49] = v49
	vals[52] = v52
	vals[57] = v57
	vals[62] = v62
	vals[67] = v67
	vals[72] = v72
	vals[77] = v77
	vals[82] = v82
	return n
}

func run_cjpeg_slice_t42(vals []uint64, mems [][]uint64, max uint64) uint64 {
	_ = vals[74]
	m0 := mems[0]
	v0 := vals[0]
	v15 := vals[15]
	v28 := vals[28]
	v38 := vals[38]
	v42 := vals[42]
	v46 := vals[46]
	v49 := vals[49]
	v54 := vals[54]
	v59 := vals[59]
	v64 := vals[64]
	v69 := vals[69]
	var n uint64
	for ; n < max; n++ {
		var v14 uint64
		if addr := uint64(0x0); addr < uint64(len(m0)) {
			v14 = m0[addr] & 0x7ff
		}
		var v16 uint64
		if v14 <= v15 {
			v16 = 1
		}
		var v18 uint64
		if v16 != 0 {
			v18 = 0x6
		} else {
			v18 = 0x1
		}
		v26 := (v15 + 0x1) & 0x7ff
		var v29 uint64
		if addr := uint64(v15); addr < uint64(len(m0)) {
			v29 = m0[addr] & 0x3fffff
		}
		v31 := v29 & 0x3f
		v33 := (v31 | 0x0)
		v35 := (v33 + 0x3) & 0x7f
		v36 := (v28 + v35) & 0xffffff
		v40 := (v38 + 0x1) & 0xffffff
		v44 := (v42 + 0xc) & 0xffffff
		v47 := (v46 + 0x1) & 0xffffff
		v52 := (v49 + 0x1) & 0xffffff
		v57 := (v54 + 0x1) & 0xffffff
		v62 := (v59 + 0x1) & 0xffffff
		v67 := (v64 + 0x1) & 0xffffff
		v72 := (v69 + 0x1) & 0xffffff
		var s24, s27, s37, s41, s45, s48, s53, s58, s63, s68, s73, s74 uint64
		switch v0 {
		case 0x0:
			v27 := v15
			v37 := v28
			v41 := v38
			v45 := v42
			v48 := v46
			v53 := v49
			v58 := v54
			v63 := v59
			v68 := v64
			v73 := v69
			s74 = 0x0
			s24 = 0x1
			s27 = v27
			s37 = v37
			s41 = v41
			s45 = v45
			s48 = v48
			s53 = v53
			s58 = v58
			s63 = v63
			s68 = v68
			s73 = v73
		case 0x1:
			v27 := v15
			v37 := v28
			v41 := v38
			v45 := v44
			v48 := v47
			v53 := v49
			v58 := v54
			v63 := v59
			v68 := v64
			v73 := v72
			s74 = 0x0
			s24 = 0x2
			s27 = v27
			s37 = v37
			s41 = v41
			s45 = v45
			s48 = v48
			s53 = v53
			s58 = v58
			s63 = v63
			s68 = v68
			s73 = v73
		case 0x2:
			v27 := v15
			v37 := v28
			v41 := v38
			v45 := v42
			v48 := v46
			v53 := v49
			v58 := v54
			v63 := v59
			v68 := v67
			v73 := v69
			s74 = 0x0
			s24 = 0x3
			s27 = v27
			s37 = v37
			s41 = v41
			s45 = v45
			s48 = v48
			s53 = v53
			s58 = v58
			s63 = v63
			s68 = v68
			s73 = v73
		case 0x3:
			v27 := v15
			v37 := v36
			v41 := v40
			v45 := v42
			v48 := v46
			v53 := v49
			v58 := v54
			v63 := v62
			v68 := v64
			v73 := v69
			s74 = 0x0
			s24 = 0x4
			s27 = v27
			s37 = v37
			s41 = v41
			s45 = v45
			s48 = v48
			s53 = v53
			s58 = v58
			s63 = v63
			s68 = v68
			s73 = v73
		case 0x4:
			v27 := v15
			v37 := v28
			v41 := v38
			v45 := v42
			v48 := v46
			v53 := v49
			v58 := v57
			v63 := v59
			v68 := v64
			v73 := v69
			s74 = 0x0
			s24 = 0x5
			s27 = v27
			s37 = v37
			s41 = v41
			s45 = v45
			s48 = v48
			s53 = v53
			s58 = v58
			s63 = v63
			s68 = v68
			s73 = v73
		case 0x5:
			v19 := v18
			v20 := v19
			v21 := v20
			v22 := v21
			v23 := v22
			v24 := v23
			v27 := v26
			v37 := v28
			v41 := v38
			v45 := v42
			v48 := v46
			var v50 uint64
			if v24 == 0x1 {
				v50 = 1
			}
			v51 := 0x1 & v50
			var v53 uint64
			if v51 != 0 {
				v53 = v52
			} else {
				v53 = v49
			}
			var v55 uint64
			if v24 == 0x5 {
				v55 = 1
			}
			v56 := 0x0 & v55
			var v58 uint64
			if v56 != 0 {
				v58 = v57
			} else {
				v58 = v54
			}
			var v60 uint64
			if v24 == 0x4 {
				v60 = 1
			}
			v61 := 0x0 & v60
			var v63 uint64
			if v61 != 0 {
				v63 = v62
			} else {
				v63 = v59
			}
			var v65 uint64
			if v24 == 0x3 {
				v65 = 1
			}
			v66 := 0x0 & v65
			var v68 uint64
			if v66 != 0 {
				v68 = v67
			} else {
				v68 = v64
			}
			var v70 uint64
			if v24 == 0x2 {
				v70 = 1
			}
			v71 := 0x0 & v70
			var v73 uint64
			if v71 != 0 {
				v73 = v72
			} else {
				v73 = v69
			}
			s74 = 0x0
			s24 = v24
			s27 = v27
			s37 = v37
			s41 = v41
			s45 = v45
			s48 = v48
			s53 = v53
			s58 = v58
			s63 = v63
			s68 = v68
			s73 = v73
		case 0x6:
			v27 := v15
			v37 := v28
			v41 := v38
			v45 := v42
			v48 := v46
			v53 := v49
			v58 := v54
			v63 := v59
			v68 := v64
			v73 := v69
			s74 = 0x1
			s24 = 0x6
			s27 = v27
			s37 = v37
			s41 = v41
			s45 = v45
			s48 = v48
			s53 = v53
			s58 = v58
			s63 = v63
			s68 = v68
			s73 = v73
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
			var v10 uint64
			if v0 == 0x4 {
				v10 = 1
			}
			var v12 uint64
			if v0 == 0x5 {
				v12 = 1
			}
			var v19 uint64
			if v12 != 0 {
				v19 = v18
			} else {
				v19 = v0
			}
			var v20 uint64
			if v10 != 0 {
				v20 = 0x5
			} else {
				v20 = v19
			}
			var v21 uint64
			if v8 != 0 {
				v21 = 0x4
			} else {
				v21 = v20
			}
			var v22 uint64
			if v6 != 0 {
				v22 = 0x3
			} else {
				v22 = v21
			}
			var v23 uint64
			if v4 != 0 {
				v23 = 0x2
			} else {
				v23 = v22
			}
			var v24 uint64
			if v2 != 0 {
				v24 = 0x1
			} else {
				v24 = v23
			}
			var v27 uint64
			if v12 != 0 {
				v27 = v26
			} else {
				v27 = v15
			}
			var v37 uint64
			if v8 != 0 {
				v37 = v36
			} else {
				v37 = v28
			}
			var v41 uint64
			if v8 != 0 {
				v41 = v40
			} else {
				v41 = v38
			}
			var v45 uint64
			if v4 != 0 {
				v45 = v44
			} else {
				v45 = v42
			}
			var v48 uint64
			if v4 != 0 {
				v48 = v47
			} else {
				v48 = v46
			}
			var v50 uint64
			if v24 == 0x1 {
				v50 = 1
			}
			v51 := v12 & v50
			var v53 uint64
			if v51 != 0 {
				v53 = v52
			} else {
				v53 = v49
			}
			var v55 uint64
			if v24 == 0x5 {
				v55 = 1
			}
			v56 := v10 & v55
			var v58 uint64
			if v56 != 0 {
				v58 = v57
			} else {
				v58 = v54
			}
			var v60 uint64
			if v24 == 0x4 {
				v60 = 1
			}
			v61 := v8 & v60
			var v63 uint64
			if v61 != 0 {
				v63 = v62
			} else {
				v63 = v59
			}
			var v65 uint64
			if v24 == 0x3 {
				v65 = 1
			}
			v66 := v6 & v65
			var v68 uint64
			if v66 != 0 {
				v68 = v67
			} else {
				v68 = v64
			}
			var v70 uint64
			if v24 == 0x2 {
				v70 = 1
			}
			v71 := v4 & v70
			var v73 uint64
			if v71 != 0 {
				v73 = v72
			} else {
				v73 = v69
			}
			var v74 uint64
			if v0 == 0x6 {
				v74 = 1
			}
			s74 = v74
			s24 = v24
			s27 = v27
			s37 = v37
			s41 = v41
			s45 = v45
			s48 = v48
			s53 = v53
			s58 = v58
			s63 = v63
			s68 = v68
			s73 = v73
		}
		if s74 != 0 {
			break
		}
		v0 = s24
		v15 = s27
		v28 = s37
		v38 = s41
		v42 = s45
		v46 = s48
		v49 = s53
		v54 = s58
		v59 = s63
		v64 = s68
		v69 = s73
	}
	vals[0] = v0
	vals[15] = v15
	vals[28] = v28
	vals[38] = v38
	vals[42] = v42
	vals[46] = v46
	vals[49] = v49
	vals[54] = v54
	vals[59] = v59
	vals[64] = v64
	vals[69] = v69
	return n
}

func init() {
	rtl.RegisterNative("aebf8bea70d0f8729adab6b19971503c118b4703e98c0175fcaa7f6c0d8e16fc", "cjpeg", run_cjpeg)
	rtl.RegisterNative("8f5ebf5b5eeee4e6071e3e77b771c75e327ab1f696b6bedc40768f41d35043d3", "cjpeg_ins", run_cjpeg_ins)
	rtl.RegisterNative("951d00830e8e5a63c3e6c232f1bf9dff6d17582aea805c925f360522bc41b0af", "cjpeg_pruned", run_cjpeg_pruned)
	rtl.RegisterNative("fb3e3f30aa05cf96f7cb29e949c16782c5e468c9c1713fbf3a0004555a6e3fcc", "cjpeg_slice_all", run_cjpeg_slice_all)
	rtl.RegisterNative("8b952a68593d91d14c2895f28d30da38aaa0a8c9b1e82c3b159b04b904283936", "cjpeg_slice_t42", run_cjpeg_slice_t42)
}
