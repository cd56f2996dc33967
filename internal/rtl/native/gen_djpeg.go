// Code generated by rtlgen. DO NOT EDIT.
//
// Regenerate with: go generate ./internal/rtl/native

package native

import "repro/internal/rtl"

func run_djpeg(vals []uint64, mems [][]uint64, max uint64) uint64 {
	_ = vals[199]
	m0 := mems[0]
	m1 := mems[1]
	v0 := vals[0]
	v10 := vals[10]
	v11 := vals[11]
	v28 := vals[28]
	v40 := vals[40]
	v78 := vals[78]
	v88 := vals[88]
	v100 := vals[100]
	v112 := vals[112]
	v124 := vals[124]
	v136 := vals[136]
	v147 := vals[147]
	v159 := vals[159]
	v171 := vals[171]
	v183 := vals[183]
	v196 := vals[196]
	var n uint64
	for ; n < max; n++ {
		var v2 uint64
		if addr := uint64(0x0); addr < uint64(len(m0)) {
			v2 = m0[addr] & 0x7ff
		}
		var v3 uint64
		if addr := uint64(v0); addr < uint64(len(m0)) {
			v3 = m0[addr] & 0x3ffffff
		}
		v5 := v3 & 0x3f
		v7 := (v3 >> 6)
		v9 := v7 & 0xfffff
		v13 := v11 & 0x1
		v15 := (v13 + 0x1) & 0x3
		var v16 uint64
		if sh := v15; sh < 64 {
			v16 = (v11 >> sh) & 0xfffff
		}
		var v24 uint64
		if v11 == 0x0 {
			v24 = 1
		}
		v26 := (v5 >> 1)
		var v30 uint64
		if v28 != 0x0 {
			v30 = 1
		}
		v32 := (v28 - 0x1) & 0x3f
		var v33 uint64
		if v30 != 0 {
			v33 = v32
		} else {
			v33 = v28
		}
		var v37 uint64
		if v28 == 0x0 {
			v37 = 1
		}
		var v42 uint64
		if v40 != 0x0 {
			v42 = 1
		}
		v44 := (v40 - 0x1) & 0xf
		var v45 uint64
		if v42 != 0 {
			v45 = v44
		} else {
			v45 = v40
		}
		var v47 uint64
		if v40 == 0x0 {
			v47 = 1
		}
		var v48 uint64
		if v2 <= v0 {
			v48 = 1
		}
		var v50 uint64
		if v48 != 0 {
			v50 = 0x6
		} else {
			v50 = 0x1
		}
		v67 := (v0 + 0x1) & 0x7ff
		v70 := (v9 | 0x0)
		v72 := (v70 << 0) & 0xffffffffff
		v73 := (v70 >> 0)
		v74 := (v72 | v73)
		v76 := (v74 + 0x1) & 0xffffffffff
		v77 := (v74 * v76) & 0xffffffffff
		v79 := (v78 + v77) & 0xffffffffff
		v81 := (v70 << 1) & 0xffffffffff
		v83 := (v70 >> 39)
		v84 := (v81 | v83)
		v86 := (v84 + 0x3) & 0xffffffffff
		v87 := (v84 * v86) & 0xffffffffff
		v89 := (v88 + v87) & 0xffffffffff
		v91 := (v78 ^ v88)
		v93 := (v70 << 2) & 0xffffffffff
		v95 := (v70 >> 38)
		v96 := (v93 | v95)
		v98 := (v96 + 0x5) & 0xffffffffff
		v99 := (v96 * v98) & 0xffffffffff
		v101 := (v100 + v99) & 0xffffffffff
		v103 := (v91 ^ v100)
		v105 := (v70 << 3) & 0xffffffffff
		v107 := (v70 >> 37)
		v108 := (v105 | v107)
		v110 := (v108 + 0x7) & 0xffffffffff
		v111 := (v108 * v110) & 0xffffffffff
		v113 := (v112 + v111) & 0xffffffffff
		v115 := (v103 ^ v112)
		v117 := (v70 << 4) & 0xffffffffff
		v119 := (v70 >> 36)
		v120 := (v117 | v119)
		v122 := (v120 + 0x9) & 0xffffffffff
		v123 := (v120 * v122) & 0xffffffffff
		v125 := (v124 + v123) & 0xffffffffff
		v127 := (v115 ^ v124)
		v129 := (v70 << 5) & 0xffffffffff
		v131 := (v70 >> 35)
		v132 := (v129 | v131)
		v134 := (v132 + 0xb) & 0xffffffffff
		v135 := (v132 * v134) & 0xffffffffff
		v137 := (v136 + v135) & 0xffffffffff
		v139 := (v127 ^ v136)
		v140 := (v70 << 6) & 0xffffffffff
		v142 := (v70 >> 34)
		v143 := (v140 | v142)
		v145 := (v143 + 0xd) & 0xffffffffff
		v146 := (v143 * v145) & 0xffffffffff
		v148 := (v147 + v146) & 0xffffffffff
		v150 := (v139 ^ v147)
		v152 := (v70 << 7) & 0xffffffffff
		v154 := (v70 >> 33)
		v155 := (v152 | v154)
		v157 := (v155 + 0xf) & 0xffffffffff
		v158 := (v155 * v157) & 0xffffffffff
		v160 := (v159 + v158) & 0xffffffffff
		v162 := (v150 ^ v159)
		v164 := (v70 << 8) & 0xffffffffff
		v166 := (v70 >> 32)
		v167 := (v164 | v166)
		v169 := (v167 + 0x11) & 0xffffffffff
		v170 := (v167 * v169) & 0xffffffffff
		v172 := (v171 + v170) & 0xffffffffff
		v174 := (v162 ^ v171)
		v176 := (v70 << 9) & 0xffffffffff
		v178 := (v70 >> 31)
		v179 := (v176 | v178)
		v181 := (v179 + 0x13) & 0xffffffffff
		v182 := (v179 * v181) & 0xffffffffff
		v184 := (v183 + v182) & 0xffffffffff
		v186 := (v174 ^ v183)
		v187 := (v5 * v5) & 0xffffffff
		v189 := v9 & 0xffff
		v190 := (v187 + v189) & 0xffffffff
		v191 := (v190 * v190) & 0xffffffff
		v192 := (v191 >> 3)
		v194 := v186 & 0xffffffff
		v195 := (v192 ^ v194)
		v197 := (v196 + v195) & 0xffffffff
		var s22, s34, s46, s52, s65, s68, s80, s90, s102, s114, s126, s138, s149, s161, s173, s185, s198, s199 uint64
		switch v10 {
		case 0x0:
			v21 := v11
			v22 := v21
			v27 := 0x0 & v24
			var v34 uint64
			if v27 != 0 {
				v34 = v26
			} else {
				v34 = v33
			}
			v38 := 0x0 & v37
			var v46 uint64
			if v38 != 0 {
				v46 = 0xc
			} else {
				v46 = v45
			}
			v68 := v0
			v80 := v78
			v90 := v88
			v102 := v100
			v114 := v112
			v126 := v124
			v138 := v136
			v149 := v147
			v161 := v159
			v173 := v171
			v185 := v183
			v198 := v196
			s199 = 0x0
			s68 = v68
			s65 = 0x1
			s22 = v22
			s34 = v34
			s46 = v46
			s80 = v80
			s90 = v90
			s102 = v102
			s114 = v114
			s126 = v126
			s138 = v138
			s149 = v149
			s161 = v161
			s173 = v173
			s185 = v185
			s198 = v198
			s52 = 0x0
		case 0x1:
			v22 := v9
			v27 := 0x0 & v24
			var v34 uint64
			if v27 != 0 {
				v34 = v26
			} else {
				v34 = v33
			}
			v38 := 0x0 & v37
			var v46 uint64
			if v38 != 0 {
				v46 = 0xc
			} else {
				v46 = v45
			}
			v68 := v0
			v80 := v78
			v90 := v88
			v102 := v100
			v114 := v112
			v126 := v124
			v138 := v136
			v149 := v147
			v161 := v159
			v173 := v171
			v185 := v183
			v198 := v196
			s199 = 0x0
			s68 = v68
			s65 = 0x2
			s22 = v22
			s34 = v34
			s46 = v46
			s80 = v80
			s90 = v90
			s102 = v102
			s114 = v114
			s126 = v126
			s138 = v138
			s149 = v149
			s161 = v161
			s173 = v173
			s185 = v185
			s198 = v198
			s52 = 0x0
		case 0x2:
			v21 := v16
			v22 := v21
			v27 := 0x1 & v24
			var v34 uint64
			if v27 != 0 {
				v34 = v26
			} else {
				v34 = v33
			}
			v38 := 0x0 & v37
			var v46 uint64
			if v38 != 0 {
				v46 = 0xc
			} else {
				v46 = v45
			}
			var v60 uint64
			if v24 != 0 {
				v60 = 0x3
			} else {
				v60 = 0x2
			}
			v61 := v60
			v62 := v61
			v65 := v62
			v68 := v0
			v80 := v78
			v90 := v88
			v102 := v100
			v114 := v112
			v126 := v124
			v138 := v136
			v149 := v147
			v161 := v159
			v173 := v171
			v185 := v183
			v198 := v196
			s199 = 0x0
			s68 = v68
			s65 = v65
			s22 = v22
			s34 = v34
			s46 = v46
			s80 = v80
			s90 = v90
			s102 = v102
			s114 = v114
			s126 = v126
			s138 = v138
			s149 = v149
			s161 = v161
			s173 = v173
			s185 = v185
			s198 = v198
			s52 = 0x0
		case 0x3:
			v21 := v11
			v22 := v21
			v27 := 0x0 & v24
			var v34 uint64
			if v27 != 0 {
				v34 = v26
			} else {
				v34 = v33
			}
			v38 := 0x1 & v37
			var v46 uint64
			if v38 != 0 {
				v46 = 0xc
			} else {
				v46 = v45
			}
			var v58 uint64
			if v37 != 0 {
				v58 = 0x4
			} else {
				v58 = 0x3
			}
			v59 := v58
			v61 := v59
			v62 := v61
			v65 := v62
			v68 := v0
			v80 := v78
			v90 := v88
			v102 := v100
			v114 := v112
			v126 := v124
			v138 := v136
			v149 := v147
			v161 := v159
			v173 := v171
			v185 := v183
			v198 := v196
			s199 = 0x0
			s68 = v68
			s65 = v65
			s22 = v22
			s34 = v34
			s46 = v46
			s80 = v80
			s90 = v90
			s102 = v102
			s114 = v114
			s126 = v126
			s138 = v138
			s149 = v149
			s161 = v161
			s173 = v173
			s185 = v185
			s198 = v198
			s52 = 0x0
		case 0x4:
			v21 := v11
			v22 := v21
			v27 := 0x0 & v24
			var v34 uint64
			if v27 != 0 {
				v34 = v26
			} else {
				v34 = v33
			}
			v38 := 0x0 & v37
			var v46 uint64
			if v38 != 0 {
				v46 = 0xc
			} else {
				v46 = v45
			}
			var v54 uint64
			if v47 != 0 {
				v54 = 0x5
			} else {
				v54 = 0x4
			}
			v57 := v54
			v59 := v57
			v61 := v59
			v62 := v61
			v65 := v62
			v68 := v0
			v80 := v79
			v90 := v89
			v102 := v101
			v114 := v113
			v126 := v125
			v138 := v137
			v149 := v148
			v161 := v160
			v173 := v172
			v185 := v184
			v198 := v197
			s199 = 0x0
			s68 = v68
			s65 = v65
			s22 = v22
			s34 = v34
			s46 = v46
			s80 = v80
			s90 = v90
			s102 = v102
			s114 = v114
			s126 = v126
			s138 = v138
			s149 = v149
			s161 = v161
			s173 = v173
			s185 = v185
			s198 = v198
			s52 = 0x0
		case 0x5:
			v21 := v11
			v22 := v21
			v27 := 0x0 & v24
			var v34 uint64
			if v27 != 0 {
				v34 = v26
			} else {
				v34 = v33
			}
			v38 := 0x0 & v37
			var v46 uint64
			if v38 != 0 {
				v46 = 0xc
			} else {
				v46 = v45
			}
			v53 := v50
			v57 := v53
			v59 := v57
			v61 := v59
			v62 := v61
			v65 := v62
			v68 := v67
			v80 := v78
			v90 := v88
			v102 := v100
			v114 := v112
			v126 := v124
			v138 := v136
			v149 := v147
			v161 := v159
			v173 := v171
			v185 := v183
			v198 := v196
			s199 = 0x0
			s68 = v68
			s65 = v65
			s22 = v22
			s34 = v34
			s46 = v46
			s80 = v80
			s90 = v90
			s102 = v102
			s114 = v114
			s126 = v126
			s138 = v138
			s149 = v149
			s161 = v161
			s173 = v173
			s185 = v185
			s198 = v198
			s52 = 0x1
		case 0x6:
			v21 := v11
			v22 := v21
			v27 := 0x0 & v24
			var v34 uint64
			if v27 != 0 {
				v34 = v26
			} else {
				v34 = v33
			}
			v38 := 0x0 & v37
			var v46 uint64
			if v38 != 0 {
				v46 = 0xc
			} else {
				v46 = v45
			}
			v68 := v0
			v80 := v78
			v90 := v88
			v102 := v100
			v114 := v112
			v126 := v124
			v138 := v136
			v149 := v147
			v161 := v159
			v173 := v171
			v185 := v183
			v198 := v196
			s199 = 0x1
			s68 = v68
			s65 = 0x6
			s22 = v22
			s34 = v34
			s46 = v46
			s80 = v80
			s90 = v90
			s102 = v102
			s114 = v114
			s126 = v126
			s138 = v138
			s149 = v149
			s161 = v161
			s173 = v173
			s185 = v185
			s198 = v198
			s52 = 0x0
		default:
			var v18 uint64
			if v10 == 0x1 {
				v18 = 1
			}
			var v20 uint64
			if v10 == 0x2 {
				v20 = 1
			}
			var v21 uint64
			if v20 != 0 {
				v21 = v16
			} else {
				v21 = v11
			}
			var v22 uint64
			if v18 != 0 {
				v22 = v9
			} else {
				v22 = v21
			}
			v27 := v20 & v24
			var v34 uint64
			if v27 != 0 {
				v34 = v26
			} else {
				v34 = v33
			}
			var v36 uint64
			if v10 == 0x3 {
				v36 = 1
			}
			v38 := v36 & v37
			var v46 uint64
			if v38 != 0 {
				v46 = 0xc
			} else {
				v46 = v45
			}
			var v52 uint64
			if v10 == 0x5 {
				v52 = 1
			}
			var v53 uint64
			if v52 != 0 {
				v53 = v50
			} else {
				v53 = v10
			}
			var v54 uint64
			if v47 != 0 {
				v54 = 0x5
			} else {
				v54 = v10
			}
			var v56 uint64
			if v10 == 0x4 {
				v56 = 1
			}
			var v57 uint64
			if v56 != 0 {
				v57 = v54
			} else {
				v57 = v53
			}
			var v58 uint64
			if v37 != 0 {
				v58 = 0x4
			} else {
				v58 = v10
			}
			var v59 uint64
			if v36 != 0 {
				v59 = v58
			} else {
				v59 = v57
			}
			var v60 uint64
			if v24 != 0 {
				v60 = 0x3
			} else {
				v60 = v10
			}
			var v61 uint64
			if v20 != 0 {
				v61 = v60
			} else {
				v61 = v59
			}
			var v62 uint64
			if v18 != 0 {
				v62 = 0x2
			} else {
				v62 = v61
			}
			var v64 uint64
			if v10 == 0x0 {
				v64 = 1
			}
			var v65 uint64
			if v64 != 0 {
				v65 = 0x1
			} else {
				v65 = v62
			}
			var v68 uint64
			if v52 != 0 {
				v68 = v67
			} else {
				v68 = v0
			}
			var v80 uint64
			if v56 != 0 {
				v80 = v79
			} else {
				v80 = v78
			}
			var v90 uint64
			if v56 != 0 {
				v90 = v89
			} else {
				v90 = v88
			}
			var v102 uint64
			if v56 != 0 {
				v102 = v101
			} else {
				v102 = v100
			}
			var v114 uint64
			if v56 != 0 {
				v114 = v113
			} else {
				v114 = v112
			}
			var v126 uint64
			if v56 != 0 {
				v126 = v125
			} else {
				v126 = v124
			}
			var v138 uint64
			if v56 != 0 {
				v138 = v137
			} else {
				v138 = v136
			}
			var v149 uint64
			if v56 != 0 {
				v149 = v148
			} else {
				v149 = v147
			}
			var v161 uint64
			if v56 != 0 {
				v161 = v160
			} else {
				v161 = v159
			}
			var v173 uint64
			if v56 != 0 {
				v173 = v172
			} else {
				v173 = v171
			}
			var v185 uint64
			if v56 != 0 {
				v185 = v184
			} else {
				v185 = v183
			}
			var v198 uint64
			if v56 != 0 {
				v198 = v197
			} else {
				v198 = v196
			}
			var v199 uint64
			if v10 == 0x6 {
				v199 = 1
			}
			s199 = v199
			s68 = v68
			s65 = v65
			s22 = v22
			s34 = v34
			s46 = v46
			s80 = v80
			s90 = v90
			s102 = v102
			s114 = v114
			s126 = v126
			s138 = v138
			s149 = v149
			s161 = v161
			s173 = v173
			s185 = v185
			s198 = v198
			s52 = v52
		}
		if s199 != 0 {
			break
		}
		if s52 != 0 {
			if addr := uint64(v0); addr < uint64(len(m1)) {
				m1[addr] = v196
			}
		}
		v0 = s68
		v10 = s65
		v11 = s22
		v28 = s34
		v40 = s46
		v78 = s80
		v88 = s90
		v100 = s102
		v112 = s114
		v124 = s126
		v136 = s138
		v147 = s149
		v159 = s161
		v171 = s173
		v183 = s185
		v196 = s198
	}
	vals[0] = v0
	vals[10] = v10
	vals[11] = v11
	vals[28] = v28
	vals[40] = v40
	vals[78] = v78
	vals[88] = v88
	vals[100] = v100
	vals[112] = v112
	vals[124] = v124
	vals[136] = v136
	vals[147] = v147
	vals[159] = v159
	vals[171] = v171
	vals[183] = v183
	vals[196] = v196
	return n
}

func run_djpeg_ins(vals []uint64, mems [][]uint64, max uint64) uint64 {
	_ = vals[252]
	m0 := mems[0]
	m1 := mems[1]
	v0 := vals[0]
	v10 := vals[10]
	v11 := vals[11]
	v28 := vals[28]
	v40 := vals[40]
	v78 := vals[78]
	v88 := vals[88]
	v100 := vals[100]
	v112 := vals[112]
	v124 := vals[124]
	v136 := vals[136]
	v147 := vals[147]
	v159 := vals[159]
	v171 := vals[171]
	v183 := vals[183]
	v196 := vals[196]
	v203 := vals[203]
	v208 := vals[208]
	v213 := vals[213]
	v218 := vals[218]
	v223 := vals[223]
	v228 := vals[228]
	v232 := vals[232]
	v235 := vals[235]
	v238 := vals[238]
	v241 := vals[241]
	v244 := vals[244]
	v247 := vals[247]
	v250 := vals[250]
	var n uint64
	for ; n < max; n++ {
		var v2 uint64
		if addr := uint64(0x0); addr < uint64(len(m0)) {
			v2 = m0[addr] & 0x7ff
		}
		var v3 uint64
		if addr := uint64(v0); addr < uint64(len(m0)) {
			v3 = m0[addr] & 0x3ffffff
		}
		v5 := v3 & 0x3f
		v7 := (v3 >> 6)
		v9 := v7 & 0xfffff
		v13 := v11 & 0x1
		v15 := (v13 + 0x1) & 0x3
		var v16 uint64
		if sh := v15; sh < 64 {
			v16 = (v11 >> sh) & 0xfffff
		}
		var v24 uint64
		if v11 == 0x0 {
			v24 = 1
		}
		v26 := (v5 >> 1)
		var v30 uint64
		if v28 != 0x0 {
			v30 = 1
		}
		v32 := (v28 - 0x1) & 0x3f
		var v33 uint64
		if v30 != 0 {
			v33 = v32
		} else {
			v33 = v28
		}
		var v37 uint64
		if v28 == 0x0 {
			v37 = 1
		}
		var v42 uint64
		if v40 != 0x0 {
			v42 = 1
		}
		v44 := (v40 - 0x1) & 0xf
		var v45 uint64
		if v42 != 0 {
			v45 = v44
		} else {
			v45 = v40
		}
		var v47 uint64
		if v40 == 0x0 {
			v47 = 1
		}
		var v48 uint64
		if v2 <= v0 {
			v48 = 1
		}
		var v50 uint64
		if v48 != 0 {
			v50 = 0x6
		} else {
			v50 = 0x1
		}
		v67 := (v0 + 0x1) & 0x7ff
		v70 := (v9 | 0x0)
		v72 := (v70 << 0) & 0xffffffffff
		v73 := (v70 >> 0)
		v74 := (v72 | v73)
		v76 := (v74 + 0x1) & 0xffffffffff
		v77 := (v74 * v76) & 0xffffffffff
		v79 := (v78 + v77) & 0xffffffffff
		v81 := (v70 << 1) & 0xffffffffff
		v83 := (v70 >> 39)
		v84 := (v81 | v83)
		v86 := (v84 + 0x3) & 0xffffffffff
		v87 := (v84 * v86) & 0xffffffffff
		v89 := (v88 + v87) & 0xffffffffff
		v91 := (v78 ^ v88)
		v93 := (v70 << 2) & 0xffffffffff
		v95 := (v70 >> 38)
		v96 := (v93 | v95)
		v98 := (v96 + 0x5) & 0xffffffffff
		v99 := (v96 * v98) & 0xffffffffff
		v101 := (v100 + v99) & 0xffffffffff
		v103 := (v91 ^ v100)
		v105 := (v70 << 3) & 0xffffffffff
		v107 := (v70 >> 37)
		v108 := (v105 | v107)
		v110 := (v108 + 0x7) & 0xffffffffff
		v111 := (v108 * v110) & 0xffffffffff
		v113 := (v112 + v111) & 0xffffffffff
		v115 := (v103 ^ v112)
		v117 := (v70 << 4) & 0xffffffffff
		v119 := (v70 >> 36)
		v120 := (v117 | v119)
		v122 := (v120 + 0x9) & 0xffffffffff
		v123 := (v120 * v122) & 0xffffffffff
		v125 := (v124 + v123) & 0xffffffffff
		v127 := (v115 ^ v124)
		v129 := (v70 << 5) & 0xffffffffff
		v131 := (v70 >> 35)
		v132 := (v129 | v131)
		v134 := (v132 + 0xb) & 0xffffffffff
		v135 := (v132 * v134) & 0xffffffffff
		v137 := (v136 + v135) & 0xffffffffff
		v139 := (v127 ^ v136)
		v140 := (v70 << 6) & 0xffffffffff
		v142 := (v70 >> 34)
		v143 := (v140 | v142)
		v145 := (v143 + 0xd) & 0xffffffffff
		v146 := (v143 * v145) & 0xffffffffff
		v148 := (v147 + v146) & 0xffffffffff
		v150 := (v139 ^ v147)
		v152 := (v70 << 7) & 0xffffffffff
		v154 := (v70 >> 33)
		v155 := (v152 | v154)
		v157 := (v155 + 0xf) & 0xffffffffff
		v158 := (v155 * v157) & 0xffffffffff
		v160 := (v159 + v158) & 0xffffffffff
		v162 := (v150 ^ v159)
		v164 := (v70 << 8) & 0xffffffffff
		v166 := (v70 >> 32)
		v167 := (v164 | v166)
		v169 := (v167 + 0x11) & 0xffffffffff
		v170 := (v167 * v169) & 0xffffffffff
		v172 := (v171 + v170) & 0xffffffffff
		v174 := (v162 ^ v171)
		v176 := (v70 << 9) & 0xffffffffff
		v178 := (v70 >> 31)
		v179 := (v176 | v178)
		v181 := (v179 + 0x13) & 0xffffffffff
		v182 := (v179 * v181) & 0xffffffffff
		v184 := (v183 + v182) & 0xffffffffff
		v186 := (v174 ^ v183)
		v187 := (v5 * v5) & 0xffffffff
		v189 := v9 & 0xffff
		v190 := (v187 + v189) & 0xffffffff
		v191 := (v190 * v190) & 0xffffffff
		v192 := (v191 >> 3)
		v194 := v186 & 0xffffffff
		v195 := (v192 ^ v194)
		v197 := (v196 + v195) & 0xffffffff
		v204 := (v203 + 0x1) & 0xffffff
		v209 := (v208 + 0x1) & 0xffffff
		v214 := (v213 + 0x1) & 0xffffff
		v219 := (v218 + 0x1) & 0xffffff
		v224 := (v223 + 0x1) & 0xffffff
		v229 := (v228 + 0x1) & 0xffffff
		v233 := (v232 + 0x1) & 0xffffff
		v236 := (v235 + 0x1) & 0xffffff
		v239 := (v238 + v26) & 0xffffff
		v242 := (v241 + v28) & 0xffffff
		v245 := (v244 + 0x1) & 0xffffff
		v248 := (v247 + 0xc) & 0xffffff
		v251 := (v250 + v40) & 0xffffff
		var s22, s34, s46, s52, s65, s68, s80, s90, s102, s114, s126, s138, s149, s161, s173, s185, s198, s199, s205, s210, s215, s220, s225, s230, s234, s237, s240, s243, s246, s249, s252 uint64
		switch v10 {
		case 0x0:
			v21 := v11
			v22 := v21
			v27 := 0x0 & v24
			var v34 uint64
			if v27 != 0 {
				v34 = v26
			} else {
				v34 = v33
			}
			v38 := 0x0 & v37
			var v46 uint64
			if v38 != 0 {
				v46 = 0xc
			} else {
				v46 = v45
			}
			v68 := v0
			v80 := v78
			v90 := v88
			v102 := v100
			v114 := v112
			v126 := v124
			v138 := v136
			v149 := v147
			v161 := v159
			v173 := v171
			v185 := v183
			v198 := v196
			v205 := v204
			v210 := v208
			v215 := v213
			v220 := v218
			v225 := v223
			v230 := v228
			v234 := v232
			var v237 uint64
			if v27 != 0 {
				v237 = v236
			} else {
				v237 = v235
			}
			var v240 uint64
			if v27 != 0 {
				v240 = v239
			} else {
				v240 = v238
			}
			var v243 uint64
			if v27 != 0 {
				v243 = v242
			} else {
				v243 = v241
			}
			var v246 uint64
			if v38 != 0 {
				v246 = v245
			} else {
				v246 = v244
			}
			var v249 uint64
			if v38 != 0 {
				v249 = v248
			} else {
				v249 = v247
			}
			var v252 uint64
			if v38 != 0 {
				v252 = v251
			} else {
				v252 = v250
			}
			s199 = 0x0
			s68 = v68
			s65 = 0x1
			s22 = v22
			s34 = v34
			s46 = v46
			s80 = v80
			s90 = v90
			s102 = v102
			s114 = v114
			s126 = v126
			s138 = v138
			s149 = v149
			s161 = v161
			s173 = v173
			s185 = v185
			s198 = v198
			s205 = v205
			s210 = v210
			s215 = v215
			s220 = v220
			s225 = v225
			s230 = v230
			s234 = v234
			s237 = v237
			s240 = v240
			s243 = v243
			s246 = v246
			s249 = v249
			s252 = v252
			s52 = 0x0
		case 0x1:
			v22 := v9
			v27 := 0x0 & v24
			var v34 uint64
			if v27 != 0 {
				v34 = v26
			} else {
				v34 = v33
			}
			v38 := 0x0 & v37
			var v46 uint64
			if v38 != 0 {
				v46 = 0xc
			} else {
				v46 = v45
			}
			v68 := v0
			v80 := v78
			v90 := v88
			v102 := v100
			v114 := v112
			v126 := v124
			v138 := v136
			v149 := v147
			v161 := v159
			v173 := v171
			v185 := v183
			v198 := v196
			v205 := v203
			v210 := v209
			v215 := v213
			v220 := v218
			v225 := v223
			v230 := v228
			v234 := v232
			var v237 uint64
			if v27 != 0 {
				v237 = v236
			} else {
				v237 = v235
			}
			var v240 uint64
			if v27 != 0 {
				v240 = v239
			} else {
				v240 = v238
			}
			var v243 uint64
			if v27 != 0 {
				v243 = v242
			} else {
				v243 = v241
			}
			var v246 uint64
			if v38 != 0 {
				v246 = v245
			} else {
				v246 = v244
			}
			var v249 uint64
			if v38 != 0 {
				v249 = v248
			} else {
				v249 = v247
			}
			var v252 uint64
			if v38 != 0 {
				v252 = v251
			} else {
				v252 = v250
			}
			s199 = 0x0
			s68 = v68
			s65 = 0x2
			s22 = v22
			s34 = v34
			s46 = v46
			s80 = v80
			s90 = v90
			s102 = v102
			s114 = v114
			s126 = v126
			s138 = v138
			s149 = v149
			s161 = v161
			s173 = v173
			s185 = v185
			s198 = v198
			s205 = v205
			s210 = v210
			s215 = v215
			s220 = v220
			s225 = v225
			s230 = v230
			s234 = v234
			s237 = v237
			s240 = v240
			s243 = v243
			s246 = v246
			s249 = v249
			s252 = v252
			s52 = 0x0
		case 0x2:
			v21 := v16
			v22 := v21
			v27 := 0x1 & v24
			var v34 uint64
			if v27 != 0 {
				v34 = v26
			} else {
				v34 = v33
			}
			v38 := 0x0 & v37
			var v46 uint64
			if v38 != 0 {
				v46 = 0xc
			} else {
				v46 = v45
			}
			var v60 uint64
			if v24 != 0 {
				v60 = 0x3
			} else {
				v60 = 0x2
			}
			v61 := v60
			v62 := v61
			v65 := v62
			v68 := v0
			v80 := v78
			v90 := v88
			v102 := v100
			v114 := v112
			v126 := v124
			v138 := v136
			v149 := v147
			v161 := v159
			v173 := v171
			v185 := v183
			v198 := v196
			var v200 uint64
			if v65 == 0x1 {
				v200 = 1
			}
			v201 := 0x0 & v200
			var v205 uint64
			if v201 != 0 {
				v205 = v204
			} else {
				v205 = v203
			}
			var v206 uint64
			if v65 == 0x2 {
				v206 = 1
			}
			v207 := 0x0 & v206
			var v210 uint64
			if v207 != 0 {
				v210 = v209
			} else {
				v210 = v208
			}
			var v211 uint64
			if v65 == 0x3 {
				v211 = 1
			}
			v212 := 0x1 & v211
			var v215 uint64
			if v212 != 0 {
				v215 = v214
			} else {
				v215 = v213
			}
			var v216 uint64
			if v65 == 0x4 {
				v216 = 1
			}
			v217 := 0x0 & v216
			var v220 uint64
			if v217 != 0 {
				v220 = v219
			} else {
				v220 = v218
			}
			var v221 uint64
			if v65 == 0x5 {
				v221 = 1
			}
			v222 := 0x0 & v221
			var v225 uint64
			if v222 != 0 {
				v225 = v224
			} else {
				v225 = v223
			}
			var v226 uint64
			if v65 == 0x6 {
				v226 = 1
			}
			v227 := 0x0 & v226
			var v230 uint64
			if v227 != 0 {
				v230 = v229
			} else {
				v230 = v228
			}
			v231 := 0x0 & v200
			var v234 uint64
			if v231 != 0 {
				v234 = v233
			} else {
				v234 = v232
			}
			var v237 uint64
			if v27 != 0 {
				v237 = v236
			} else {
				v237 = v235
			}
			var v240 uint64
			if v27 != 0 {
				v240 = v239
			} else {
				v240 = v238
			}
			var v243 uint64
			if v27 != 0 {
				v243 = v242
			} else {
				v243 = v241
			}
			var v246 uint64
			if v38 != 0 {
				v246 = v245
			} else {
				v246 = v244
			}
			var v249 uint64
			if v38 != 0 {
				v249 = v248
			} else {
				v249 = v247
			}
			var v252 uint64
			if v38 != 0 {
				v252 = v251
			} else {
				v252 = v250
			}
			s199 = 0x0
			s68 = v68
			s65 = v65
			s22 = v22
			s34 = v34
			s46 = v46
			s80 = v80
			s90 = v90
			s102 = v102
			s114 = v114
			s126 = v126
			s138 = v138
			s149 = v149
			s161 = v161
			s173 = v173
			s185 = v185
			s198 = v198
			s205 = v205
			s210 = v210
			s215 = v215
			s220 = v220
			s225 = v225
			s230 = v230
			s234 = v234
			s237 = v237
			s240 = v240
			s243 = v243
			s246 = v246
			s249 = v249
			s252 = v252
			s52 = 0x0
		case 0x3:
			v21 := v11
			v22 := v21
			v27 := 0x0 & v24
			var v34 uint64
			if v27 != 0 {
				v34 = v26
			} else {
				v34 = v33
			}
			v38 := 0x1 & v37
			var v46 uint64
			if v38 != 0 {
				v46 = 0xc
			} else {
				v46 = v45
			}
			var v58 uint64
			if v37 != 0 {
				v58 = 0x4
			} else {
				v58 = 0x3
			}
			v59 := v58
			v61 := v59
			v62 := v61
			v65 := v62
			v68 := v0
			v80 := v78
			v90 := v88
			v102 := v100
			v114 := v112
			v126 := v124
			v138 := v136
			v149 := v147
			v161 := v159
			v173 := v171
			v185 := v183
			v198 := v196
			var v200 uint64
			if v65 == 0x1 {
				v200 = 1
			}
			v201 := 0x0 & v200
			var v205 uint64
			if v201 != 0 {
				v205 = v204
			} else {
				v205 = v203
			}
			var v206 uint64
			if v65 == 0x2 {
				v206 = 1
			}
			v207 := 0x0 & v206
			var v210 uint64
			if v207 != 0 {
				v210 = v209
			} else {
				v210 = v208
			}
			var v211 uint64
			if v65 == 0x3 {
				v211 = 1
			}
			v212 := 0x0 & v211
			var v215 uint64
			if v212 != 0 {
				v215 = v214
			} else {
				v215 = v213
			}
			var v216 uint64
			if v65 == 0x4 {
				v216 = 1
			}
			v217 := 0x1 & v216
			var v220 uint64
			if v217 != 0 {
				v220 = v219
			} else {
				v220 = v218
			}
			var v221 uint64
			if v65 == 0x5 {
				v221 = 1
			}
			v222 := 0x0 & v221
			var v225 uint64
			if v222 != 0 {
				v225 = v224
			} else {
				v225 = v223
			}
			var v226 uint64
			if v65 == 0x6 {
				v226 = 1
			}
			v227 := 0x0 & v226
			var v230 uint64
			if v227 != 0 {
				v230 = v229
			} else {
				v230 = v228
			}
			v231 := 0x0 & v200
			var v234 uint64
			if v231 != 0 {
				v234 = v233
			} else {
				v234 = v232
			}
			var v237 uint64
			if v27 != 0 {
				v237 = v236
			} else {
				v237 = v235
			}
			var v240 uint64
			if v27 != 0 {
				v240 = v239
			} else {
				v240 = v238
			}
			var v243 uint64
			if v27 != 0 {
				v243 = v242
			} else {
				v243 = v241
			}
			var v246 uint64
			if v38 != 0 {
				v246 = v245
			} else {
				v246 = v244
			}
			var v249 uint64
			if v38 != 0 {
				v249 = v248
			} else {
				v249 = v247
			}
			var v252 uint64
			if v38 != 0 {
				v252 = v251
			} else {
				v252 = v250
			}
			s199 = 0x0
			s68 = v68
			s65 = v65
			s22 = v22
			s34 = v34
			s46 = v46
			s80 = v80
			s90 = v90
			s102 = v102
			s114 = v114
			s126 = v126
			s138 = v138
			s149 = v149
			s161 = v161
			s173 = v173
			s185 = v185
			s198 = v198
			s205 = v205
			s210 = v210
			s215 = v215
			s220 = v220
			s225 = v225
			s230 = v230
			s234 = v234
			s237 = v237
			s240 = v240
			s243 = v243
			s246 = v246
			s249 = v249
			s252 = v252
			s52 = 0x0
		case 0x4:
			v21 := v11
			v22 := v21
			v27 := 0x0 & v24
			var v34 uint64
			if v27 != 0 {
				v34 = v26
			} else {
				v34 = v33
			}
			v38 := 0x0 & v37
			var v46 uint64
			if v38 != 0 {
				v46 = 0xc
			} else {
				v46 = v45
			}
			var v54 uint64
			if v47 != 0 {
				v54 = 0x5
			} else {
				v54 = 0x4
			}
			v57 := v54
			v59 := v57
			v61 := v59
			v62 := v61
			v65 := v62
			v68 := v0
			v80 := v79
			v90 := v89
			v102 := v101
			v114 := v113
			v126 := v125
			v138 := v137
			v149 := v148
			v161 := v160
			v173 := v172
			v185 := v184
			v198 := v197
			var v200 uint64
			if v65 == 0x1 {
				v200 = 1
			}
			v201 := 0x0 & v200
			var v205 uint64
			if v201 != 0 {
				v205 = v204
			} else {
				v205 = v203
			}
			var v206 uint64
			if v65 == 0x2 {
				v206 = 1
			}
			v207 := 0x0 & v206
			var v210 uint64
			if v207 != 0 {
				v210 = v209
			} else {
				v210 = v208
			}
			var v211 uint64
			if v65 == 0x3 {
				v211 = 1
			}
			v212 := 0x0 & v211
			var v215 uint64
			if v212 != 0 {
				v215 = v214
			} else {
				v215 = v213
			}
			var v216 uint64
			if v65 == 0x4 {
				v216 = 1
			}
			v217 := 0x0 & v216
			var v220 uint64
			if v217 != 0 {
				v220 = v219
			} else {
				v220 = v218
			}
			var v221 uint64
			if v65 == 0x5 {
				v221 = 1
			}
			v222 := 0x1 & v221
			var v225 uint64
			if v222 != 0 {
				v225 = v224
			} else {
				v225 = v223
			}
			var v226 uint64
			if v65 == 0x6 {
				v226 = 1
			}
			v227 := 0x0 & v226
			var v230 uint64
			if v227 != 0 {
				v230 = v229
			} else {
				v230 = v228
			}
			v231 := 0x0 & v200
			var v234 uint64
			if v231 != 0 {
				v234 = v233
			} else {
				v234 = v232
			}
			var v237 uint64
			if v27 != 0 {
				v237 = v236
			} else {
				v237 = v235
			}
			var v240 uint64
			if v27 != 0 {
				v240 = v239
			} else {
				v240 = v238
			}
			var v243 uint64
			if v27 != 0 {
				v243 = v242
			} else {
				v243 = v241
			}
			var v246 uint64
			if v38 != 0 {
				v246 = v245
			} else {
				v246 = v244
			}
			var v249 uint64
			if v38 != 0 {
				v249 = v248
			} else {
				v249 = v247
			}
			var v252 uint64
			if v38 != 0 {
				v252 = v251
			} else {
				v252 = v250
			}
			s199 = 0x0
			s68 = v68
			s65 = v65
			s22 = v22
			s34 = v34
			s46 = v46
			s80 = v80
			s90 = v90
			s102 = v102
			s114 = v114
			s126 = v126
			s138 = v138
			s149 = v149
			s161 = v161
			s173 = v173
			s185 = v185
			s198 = v198
			s205 = v205
			s210 = v210
			s215 = v215
			s220 = v220
			s225 = v225
			s230 = v230
			s234 = v234
			s237 = v237
			s240 = v240
			s243 = v243
			s246 = v246
			s249 = v249
			s252 = v252
			s52 = 0x0
		case 0x5:
			v21 := v11
			v22 := v21
			v27 := 0x0 & v24
			var v34 uint64
			if v27 != 0 {
				v34 = v26
			} else {
				v34 = v33
			}
			v38 := 0x0 & v37
			var v46 uint64
			if v38 != 0 {
				v46 = 0xc
			} else {
				v46 = v45
			}
			v53 := v50
			v57 := v53
			v59 := v57
			v61 := v59
			v62 := v61
			v65 := v62
			v68 := v67
			v80 := v78
			v90 := v88
			v102 := v100
			v114 := v112
			v126 := v124
			v138 := v136
			v149 := v147
			v161 := v159
			v173 := v171
			v185 := v183
			v198 := v196
			var v200 uint64
			if v65 == 0x1 {
				v200 = 1
			}
			v201 := 0x0 & v200
			var v205 uint64
			if v201 != 0 {
				v205 = v204
			} else {
				v205 = v203
			}
			var v206 uint64
			if v65 == 0x2 {
				v206 = 1
			}
			v207 := 0x0 & v206
			var v210 uint64
			if v207 != 0 {
				v210 = v209
			} else {
				v210 = v208
			}
			var v211 uint64
			if v65 == 0x3 {
				v211 = 1
			}
			v212 := 0x0 & v211
			var v215 uint64
			if v212 != 0 {
				v215 = v214
			} else {
				v215 = v213
			}
			var v216 uint64
			if v65 == 0x4 {
				v216 = 1
			}
			v217 := 0x0 & v216
			var v220 uint64
			if v217 != 0 {
				v220 = v219
			} else {
				v220 = v218
			}
			var v221 uint64
			if v65 == 0x5 {
				v221 = 1
			}
			v222 := 0x0 & v221
			var v225 uint64
			if v222 != 0 {
				v225 = v224
			} else {
				v225 = v223
			}
			var v226 uint64
			if v65 == 0x6 {
				v226 = 1
			}
			v227 := 0x1 & v226
			var v230 uint64
			if v227 != 0 {
				v230 = v229
			} else {
				v230 = v228
			}
			v231 := 0x1 & v200
			var v234 uint64
			if v231 != 0 {
				v234 = v233
			} else {
				v234 = v232
			}
			var v237 uint64
			if v27 != 0 {
				v237 = v236
			} else {
				v237 = v235
			}
			var v240 uint64
			if v27 != 0 {
				v240 = v239
			} else {
				v240 = v238
			}
			var v243 uint64
			if v27 != 0 {
				v243 = v242
			} else {
				v243 = v241
			}
			var v246 uint64
			if v38 != 0 {
				v246 = v245
			} else {
				v246 = v244
			}
			var v249 uint64
			if v38 != 0 {
				v249 = v248
			} else {
				v249 = v247
			}
			var v252 uint64
			if v38 != 0 {
				v252 = v251
			} else {
				v252 = v250
			}
			s199 = 0x0
			s68 = v68
			s65 = v65
			s22 = v22
			s34 = v34
			s46 = v46
			s80 = v80
			s90 = v90
			s102 = v102
			s114 = v114
			s126 = v126
			s138 = v138
			s149 = v149
			s161 = v161
			s173 = v173
			s185 = v185
			s198 = v198
			s205 = v205
			s210 = v210
			s215 = v215
			s220 = v220
			s225 = v225
			s230 = v230
			s234 = v234
			s237 = v237
			s240 = v240
			s243 = v243
			s246 = v246
			s249 = v249
			s252 = v252
			s52 = 0x1
		case 0x6:
			v21 := v11
			v22 := v21
			v27 := 0x0 & v24
			var v34 uint64
			if v27 != 0 {
				v34 = v26
			} else {
				v34 = v33
			}
			v38 := 0x0 & v37
			var v46 uint64
			if v38 != 0 {
				v46 = 0xc
			} else {
				v46 = v45
			}
			v68 := v0
			v80 := v78
			v90 := v88
			v102 := v100
			v114 := v112
			v126 := v124
			v138 := v136
			v149 := v147
			v161 := v159
			v173 := v171
			v185 := v183
			v198 := v196
			v205 := v203
			v210 := v208
			v215 := v213
			v220 := v218
			v225 := v223
			v230 := v228
			v234 := v232
			var v237 uint64
			if v27 != 0 {
				v237 = v236
			} else {
				v237 = v235
			}
			var v240 uint64
			if v27 != 0 {
				v240 = v239
			} else {
				v240 = v238
			}
			var v243 uint64
			if v27 != 0 {
				v243 = v242
			} else {
				v243 = v241
			}
			var v246 uint64
			if v38 != 0 {
				v246 = v245
			} else {
				v246 = v244
			}
			var v249 uint64
			if v38 != 0 {
				v249 = v248
			} else {
				v249 = v247
			}
			var v252 uint64
			if v38 != 0 {
				v252 = v251
			} else {
				v252 = v250
			}
			s199 = 0x1
			s68 = v68
			s65 = 0x6
			s22 = v22
			s34 = v34
			s46 = v46
			s80 = v80
			s90 = v90
			s102 = v102
			s114 = v114
			s126 = v126
			s138 = v138
			s149 = v149
			s161 = v161
			s173 = v173
			s185 = v185
			s198 = v198
			s205 = v205
			s210 = v210
			s215 = v215
			s220 = v220
			s225 = v225
			s230 = v230
			s234 = v234
			s237 = v237
			s240 = v240
			s243 = v243
			s246 = v246
			s249 = v249
			s252 = v252
			s52 = 0x0
		default:
			var v18 uint64
			if v10 == 0x1 {
				v18 = 1
			}
			var v20 uint64
			if v10 == 0x2 {
				v20 = 1
			}
			var v21 uint64
			if v20 != 0 {
				v21 = v16
			} else {
				v21 = v11
			}
			var v22 uint64
			if v18 != 0 {
				v22 = v9
			} else {
				v22 = v21
			}
			v27 := v20 & v24
			var v34 uint64
			if v27 != 0 {
				v34 = v26
			} else {
				v34 = v33
			}
			var v36 uint64
			if v10 == 0x3 {
				v36 = 1
			}
			v38 := v36 & v37
			var v46 uint64
			if v38 != 0 {
				v46 = 0xc
			} else {
				v46 = v45
			}
			var v52 uint64
			if v10 == 0x5 {
				v52 = 1
			}
			var v53 uint64
			if v52 != 0 {
				v53 = v50
			} else {
				v53 = v10
			}
			var v54 uint64
			if v47 != 0 {
				v54 = 0x5
			} else {
				v54 = v10
			}
			var v56 uint64
			if v10 == 0x4 {
				v56 = 1
			}
			var v57 uint64
			if v56 != 0 {
				v57 = v54
			} else {
				v57 = v53
			}
			var v58 uint64
			if v37 != 0 {
				v58 = 0x4
			} else {
				v58 = v10
			}
			var v59 uint64
			if v36 != 0 {
				v59 = v58
			} else {
				v59 = v57
			}
			var v60 uint64
			if v24 != 0 {
				v60 = 0x3
			} else {
				v60 = v10
			}
			var v61 uint64
			if v20 != 0 {
				v61 = v60
			} else {
				v61 = v59
			}
			var v62 uint64
			if v18 != 0 {
				v62 = 0x2
			} else {
				v62 = v61
			}
			var v64 uint64
			if v10 == 0x0 {
				v64 = 1
			}
			var v65 uint64
			if v64 != 0 {
				v65 = 0x1
			} else {
				v65 = v62
			}
			var v68 uint64
			if v52 != 0 {
				v68 = v67
			} else {
				v68 = v0
			}
			var v80 uint64
			if v56 != 0 {
				v80 = v79
			} else {
				v80 = v78
			}
			var v90 uint64
			if v56 != 0 {
				v90 = v89
			} else {
				v90 = v88
			}
			var v102 uint64
			if v56 != 0 {
				v102 = v101
			} else {
				v102 = v100
			}
			var v114 uint64
			if v56 != 0 {
				v114 = v113
			} else {
				v114 = v112
			}
			var v126 uint64
			if v56 != 0 {
				v126 = v125
			} else {
				v126 = v124
			}
			var v138 uint64
			if v56 != 0 {
				v138 = v137
			} else {
				v138 = v136
			}
			var v149 uint64
			if v56 != 0 {
				v149 = v148
			} else {
				v149 = v147
			}
			var v161 uint64
			if v56 != 0 {
				v161 = v160
			} else {
				v161 = v159
			}
			var v173 uint64
			if v56 != 0 {
				v173 = v172
			} else {
				v173 = v171
			}
			var v185 uint64
			if v56 != 0 {
				v185 = v184
			} else {
				v185 = v183
			}
			var v198 uint64
			if v56 != 0 {
				v198 = v197
			} else {
				v198 = v196
			}
			var v199 uint64
			if v10 == 0x6 {
				v199 = 1
			}
			var v200 uint64
			if v65 == 0x1 {
				v200 = 1
			}
			v201 := v64 & v200
			var v205 uint64
			if v201 != 0 {
				v205 = v204
			} else {
				v205 = v203
			}
			var v206 uint64
			if v65 == 0x2 {
				v206 = 1
			}
			v207 := v18 & v206
			var v210 uint64
			if v207 != 0 {
				v210 = v209
			} else {
				v210 = v208
			}
			var v211 uint64
			if v65 == 0x3 {
				v211 = 1
			}
			v212 := v20 & v211
			var v215 uint64
			if v212 != 0 {
				v215 = v214
			} else {
				v215 = v213
			}
			var v216 uint64
			if v65 == 0x4 {
				v216 = 1
			}
			v217 := v36 & v216
			var v220 uint64
			if v217 != 0 {
				v220 = v219
			} else {
				v220 = v218
			}
			var v221 uint64
			if v65 == 0x5 {
				v221 = 1
			}
			v222 := v56 & v221
			var v225 uint64
			if v222 != 0 {
				v225 = v224
			} else {
				v225 = v223
			}
			var v226 uint64
			if v65 == 0x6 {
				v226 = 1
			}
			v227 := v52 & v226
			var v230 uint64
			if v227 != 0 {
				v230 = v229
			} else {
				v230 = v228
			}
			v231 := v52 & v200
			var v234 uint64
			if v231 != 0 {
				v234 = v233
			} else {
				v234 = v232
			}
			var v237 uint64
			if v27 != 0 {
				v237 = v236
			} else {
				v237 = v235
			}
			var v240 uint64
			if v27 != 0 {
				v240 = v239
			} else {
				v240 = v238
			}
			var v243 uint64
			if v27 != 0 {
				v243 = v242
			} else {
				v243 = v241
			}
			var v246 uint64
			if v38 != 0 {
				v246 = v245
			} else {
				v246 = v244
			}
			var v249 uint64
			if v38 != 0 {
				v249 = v248
			} else {
				v249 = v247
			}
			var v252 uint64
			if v38 != 0 {
				v252 = v251
			} else {
				v252 = v250
			}
			s199 = v199
			s68 = v68
			s65 = v65
			s22 = v22
			s34 = v34
			s46 = v46
			s80 = v80
			s90 = v90
			s102 = v102
			s114 = v114
			s126 = v126
			s138 = v138
			s149 = v149
			s161 = v161
			s173 = v173
			s185 = v185
			s198 = v198
			s205 = v205
			s210 = v210
			s215 = v215
			s220 = v220
			s225 = v225
			s230 = v230
			s234 = v234
			s237 = v237
			s240 = v240
			s243 = v243
			s246 = v246
			s249 = v249
			s252 = v252
			s52 = v52
		}
		if s199 != 0 {
			break
		}
		if s52 != 0 {
			if addr := uint64(v0); addr < uint64(len(m1)) {
				m1[addr] = v196
			}
		}
		v0 = s68
		v10 = s65
		v11 = s22
		v28 = s34
		v40 = s46
		v78 = s80
		v88 = s90
		v100 = s102
		v112 = s114
		v124 = s126
		v136 = s138
		v147 = s149
		v159 = s161
		v171 = s173
		v183 = s185
		v196 = s198
		v203 = s205
		v208 = s210
		v213 = s215
		v218 = s220
		v223 = s225
		v228 = s230
		v232 = s234
		v235 = s237
		v238 = s240
		v241 = s243
		v244 = s246
		v247 = s249
		v250 = s252
	}
	vals[0] = v0
	vals[10] = v10
	vals[11] = v11
	vals[28] = v28
	vals[40] = v40
	vals[78] = v78
	vals[88] = v88
	vals[100] = v100
	vals[112] = v112
	vals[124] = v124
	vals[136] = v136
	vals[147] = v147
	vals[159] = v159
	vals[171] = v171
	vals[183] = v183
	vals[196] = v196
	vals[203] = v203
	vals[208] = v208
	vals[213] = v213
	vals[218] = v218
	vals[223] = v223
	vals[228] = v228
	vals[232] = v232
	vals[235] = v235
	vals[238] = v238
	vals[241] = v241
	vals[244] = v244
	vals[247] = v247
	vals[250] = v250
	return n
}

func run_djpeg_pruned(vals []uint64, mems [][]uint64, max uint64) uint64 {
	_ = vals[221]
	m0 := mems[0]
	m1 := mems[1]
	v0 := vals[0]
	v1 := vals[1]
	v13 := vals[13]
	v19 := vals[19]
	v25 := vals[25]
	v69 := vals[69]
	v77 := vals[77]
	v84 := vals[84]
	v92 := vals[92]
	v100 := vals[100]
	v108 := vals[108]
	v116 := vals[116]
	v123 := vals[123]
	v131 := vals[131]
	v139 := vals[139]
	v147 := vals[147]
	v168 := vals[168]
	v174 := vals[174]
	v179 := vals[179]
	v184 := vals[184]
	v189 := vals[189]
	v194 := vals[194]
	v199 := vals[199]
	v203 := vals[203]
	v206 := vals[206]
	v209 := vals[209]
	v212 := vals[212]
	v215 := vals[215]
	v218 := vals[218]
	var n uint64
	for ; n < max; n++ {
		v5 := (v0 + 0x1) & 0x7ff
		var v15 uint64
		if v13 == 0x0 {
			v15 = 1
		}
		var v21 uint64
		if v19 == 0x0 {
			v21 = 1
		}
		var v27 uint64
		if v25 == 0x0 {
			v27 = 1
		}
		var v30 uint64
		if addr := uint64(0x0); addr < uint64(len(m0)) {
			v30 = m0[addr] & 0x7ff
		}
		var v31 uint64
		if v30 <= v0 {
			v31 = 1
		}
		var v33 uint64
		if v31 != 0 {
			v33 = 0x6
		} else {
			v33 = 0x1
		}
		var v40 uint64
		if addr := uint64(v0); addr < uint64(len(m0)) {
			v40 = m0[addr] & 0x3ffffff
		}
		v42 := (v40 >> 6)
		v44 := v42 & 0xfffff
		v46 := v13 & 0x1
		v48 := (v46 + 0x1) & 0x3
		var v49 uint64
		if sh := v48; sh < 64 {
			v49 = (v13 >> sh) & 0xfffff
		}
		v54 := v40 & 0x3f
		v56 := (v54 >> 1)
		var v57 uint64
		if v19 != 0x0 {
			v57 = 1
		}
		v59 := (v19 - 0x1) & 0x3f
		var v60 uint64
		if v57 != 0 {
			v60 = v59
		} else {
			v60 = v19
		}
		var v64 uint64
		if v25 != 0x0 {
			v64 = 1
		}
		v66 := (v25 - 0x1) & 0xf
		var v67 uint64
		if v64 != 0 {
			v67 = v66
		} else {
			v67 = v25
		}
		v71 := (v44 | 0x0)
		v73 := (v71 + 0x1) & 0xffffffffff
		v74 := (v71 * v73) & 0xffffffffff
		v75 := (v69 + v74) & 0xffffffffff
		v78 := (v71 << 1) & 0xffffffffff
		v80 := (v78 + 0x3) & 0xffffffffff
		v81 := (v78 * v80) & 0xffffffffff
		v82 := (v77 + v81) & 0xffffffffff
		v86 := (v71 << 2) & 0xffffffffff
		v88 := (v86 + 0x5) & 0xffffffffff
		v89 := (v86 * v88) & 0xffffffffff
		v90 := (v84 + v89) & 0xffffffffff
		v94 := (v71 << 3) & 0xffffffffff
		v96 := (v94 + 0x7) & 0xffffffffff
		v97 := (v94 * v96) & 0xffffffffff
		v98 := (v92 + v97) & 0xffffffffff
		v102 := (v71 << 4) & 0xffffffffff
		v104 := (v102 + 0x9) & 0xffffffffff
		v105 := (v102 * v104) & 0xffffffffff
		v106 := (v100 + v105) & 0xffffffffff
		v110 := (v71 << 5) & 0xffffffffff
		v112 := (v110 + 0xb) & 0xffffffffff
		v113 := (v110 * v112) & 0xffffffffff
		v114 := (v108 + v113) & 0xffffffffff
		v117 := (v71 << 6) & 0xffffffffff
		v119 := (v117 + 0xd) & 0xffffffffff
		v120 := (v117 * v119) & 0xffffffffff
		v121 := (v116 + v120) & 0xffffffffff
		v125 := (v71 << 7) & 0xffffffffff
		v127 := (v125 + 0xf) & 0xffffffffff
		v128 := (v125 * v127) & 0xffffffffff
		v129 := (v123 + v128) & 0xffffffffff
		v133 := (v71 << 8) & 0xffffffffff
		v135 := (v133 + 0x11) & 0xffffffffff
		v136 := (v133 * v135) & 0xffffffffff
		v137 := (v131 + v136) & 0xffffffffff
		v141 := (v71 << 9) & 0xffffffffff
		v143 := (v141 + 0x13) & 0xffffffffff
		v144 := (v141 * v143) & 0xffffffffff
		v145 := (v139 + v144) & 0xffffffffff
		v148 := (v54 * v54) & 0xffffffff
		v150 := v44 & 0xffff
		v151 := (v148 + v150) & 0xffffffff
		v152 := (v151 * v151) & 0xffffffff
		v153 := (v152 >> 3)
		v154 := (v69 ^ v77)
		v155 := (v154 ^ v84)
		v156 := (v155 ^ v92)
		v157 := (v156 ^ v100)
		v158 := (v157 ^ v108)
		v159 := (v158 ^ v116)
		v160 := (v159 ^ v123)
		v161 := (v160 ^ v131)
		v162 := (v161 ^ v139)
		v164 := v162 & 0xffffffff
		v165 := (v153 ^ v164)
		v166 := (v147 + v165) & 0xffffffff
		v172 := (v168 + 0x1) & 0xffffff
		v177 := (v174 + 0x1) & 0xffffff
		v182 := (v179 + 0x1) & 0xffffff
		v187 := (v184 + 0x1) & 0xffffff
		v192 := (v189 + 0x1) & 0xffffff
		v197 := (v194 + 0x1) & 0xffffff
		v201 := (v199 + 0x1) & 0xffffff
		v204 := (v203 + 0x1) & 0xffffff
		v207 := (v206 + v56) & 0xffffff
		v210 := (v209 + v19) & 0xffffff
		v213 := (v212 + 0x1) & 0xffffff
		v216 := (v215 + 0xc) & 0xffffff
		v219 := (v218 + v25) & 0xffffff
		var s3, s6, s39, s51, s61, s68, s76, s83, s91, s99, s107, s115, s122, s130, s138, s146, s167, s173, s178, s183, s188, s193, s198, s202, s205, s208, s211, s214, s217, s220, s221 uint64
		switch v1 {
		case 0x0:
			v6 := v0
			v50 := v13
			v51 := v50
			v52 := 0x0 & v15
			var v61 uint64
			if v52 != 0 {
				v61 = v56
			} else {
				v61 = v60
			}
			v62 := 0x0 & v21
			var v68 uint64
			if v62 != 0 {
				v68 = 0xc
			} else {
				v68 = v67
			}
			v76 := v69
			v83 := v77
			v91 := v84
			v99 := v92
			v107 := v100
			v115 := v108
			v122 := v116
			v130 := v123
			v138 := v131
			v146 := v139
			v167 := v147
			v173 := v172
			v178 := v174
			v183 := v179
			v188 := v184
			v193 := v189
			v198 := v194
			v202 := v199
			var v205 uint64
			if v52 != 0 {
				v205 = v204
			} else {
				v205 = v203
			}
			var v208 uint64
			if v52 != 0 {
				v208 = v207
			} else {
				v208 = v206
			}
			var v211 uint64
			if v52 != 0 {
				v211 = v210
			} else {
				v211 = v209
			}
			var v214 uint64
			if v62 != 0 {
				v214 = v213
			} else {
				v214 = v212
			}
			var v217 uint64
			if v62 != 0 {
				v217 = v216
			} else {
				v217 = v215
			}
			var v220 uint64
			if v62 != 0 {
				v220 = v219
			} else {
				v220 = v218
			}
			s221 = 0x0
			s6 = v6
			s39 = 0x1
			s51 = v51
			s61 = v61
			s68 = v68
			s76 = v76
			s83 = v83
			s91 = v91
			s99 = v99
			s107 = v107
			s115 = v115
			s122 = v122
			s130 = v130
			s138 = v138
			s146 = v146
			s167 = v167
			s173 = v173
			s178 = v178
			s183 = v183
			s188 = v188
			s193 = v193
			s198 = v198
			s202 = v202
			s205 = v205
			s208 = v208
			s211 = v211
			s214 = v214
			s217 = v217
			s220 = v220
			s3 = 0x0
		case 0x1:
			v6 := v0
			v51 := v44
			v52 := 0x0 & v15
			var v61 uint64
			if v52 != 0 {
				v61 = v56
			} else {
				v61 = v60
			}
			v62 := 0x0 & v21
			var v68 uint64
			if v62 != 0 {
				v68 = 0xc
			} else {
				v68 = v67
			}
			v76 := v69
			v83 := v77
			v91 := v84
			v99 := v92
			v107 := v100
			v115 := v108
			v122 := v116
			v130 := v123
			v138 := v131
			v146 := v139
			v167 := v147
			v173 := v168
			v178 := v177
			v183 := v179
			v188 := v184
			v193 := v189
			v198 := v194
			v202 := v199
			var v205 uint64
			if v52 != 0 {
				v205 = v204
			} else {
				v205 = v203
			}
			var v208 uint64
			if v52 != 0 {
				v208 = v207
			} else {
				v208 = v206
			}
			var v211 uint64
			if v52 != 0 {
				v211 = v210
			} else {
				v211 = v209
			}
			var v214 uint64
			if v62 != 0 {
				v214 = v213
			} else {
				v214 = v212
			}
			var v217 uint64
			if v62 != 0 {
				v217 = v216
			} else {
				v217 = v215
			}
			var v220 uint64
			if v62 != 0 {
				v220 = v219
			} else {
				v220 = v218
			}
			s221 = 0x0
			s6 = v6
			s39 = 0x2
			s51 = v51
			s61 = v61
			s68 = v68
			s76 = v76
			s83 = v83
			s91 = v91
			s99 = v99
			s107 = v107
			s115 = v115
			s122 = v122
			s130 = v130
			s138 = v138
			s146 = v146
			s167 = v167
			s173 = v173
			s178 = v178
			s183 = v183
			s188 = v188
			s193 = v193
			s198 = v198
			s202 = v202
			s205 = v205
			s208 = v208
			s211 = v211
			s214 = v214
			s217 = v217
			s220 = v220
			s3 = 0x0
		case 0x2:
			v6 := v0
			var v17 uint64
			if v15 != 0 {
				v17 = 0x3
			} else {
				v17 = 0x2
			}
			v37 := v17
			v38 := v37
			v39 := v38
			v50 := v49
			v51 := v50
			v52 := 0x1 & v15
			var v61 uint64
			if v52 != 0 {
				v61 = v56
			} else {
				v61 = v60
			}
			v62 := 0x0 & v21
			var v68 uint64
			if v62 != 0 {
				v68 = 0xc
			} else {
				v68 = v67
			}
			v76 := v69
			v83 := v77
			v91 := v84
			v99 := v92
			v107 := v100
			v115 := v108
			v122 := v116
			v130 := v123
			v138 := v131
			v146 := v139
			v167 := v147
			var v169 uint64
			if v39 == 0x1 {
				v169 = 1
			}
			v170 := 0x0 & v169
			var v173 uint64
			if v170 != 0 {
				v173 = v172
			} else {
				v173 = v168
			}
			var v175 uint64
			if v39 == 0x2 {
				v175 = 1
			}
			v176 := 0x0 & v175
			var v178 uint64
			if v176 != 0 {
				v178 = v177
			} else {
				v178 = v174
			}
			var v180 uint64
			if v39 == 0x3 {
				v180 = 1
			}
			v181 := 0x1 & v180
			var v183 uint64
			if v181 != 0 {
				v183 = v182
			} else {
				v183 = v179
			}
			var v185 uint64
			if v39 == 0x4 {
				v185 = 1
			}
			v186 := 0x0 & v185
			var v188 uint64
			if v186 != 0 {
				v188 = v187
			} else {
				v188 = v184
			}
			var v190 uint64
			if v39 == 0x5 {
				v190 = 1
			}
			v191 := 0x0 & v190
			var v193 uint64
			if v191 != 0 {
				v193 = v192
			} else {
				v193 = v189
			}
			var v195 uint64
			if v39 == 0x6 {
				v195 = 1
			}
			v196 := 0x0 & v195
			var v198 uint64
			if v196 != 0 {
				v198 = v197
			} else {
				v198 = v194
			}
			v200 := 0x0 & v169
			var v202 uint64
			if v200 != 0 {
				v202 = v201
			} else {
				v202 = v199
			}
			var v205 uint64
			if v52 != 0 {
				v205 = v204
			} else {
				v205 = v203
			}
			var v208 uint64
			if v52 != 0 {
				v208 = v207
			} else {
				v208 = v206
			}
			var v211 uint64
			if v52 != 0 {
				v211 = v210
			} else {
				v211 = v209
			}
			var v214 uint64
			if v62 != 0 {
				v214 = v213
			} else {
				v214 = v212
			}
			var v217 uint64
			if v62 != 0 {
				v217 = v216
			} else {
				v217 = v215
			}
			var v220 uint64
			if v62 != 0 {
				v220 = v219
			} else {
				v220 = v218
			}
			s221 = 0x0
			s6 = v6
			s39 = v39
			s51 = v51
			s61 = v61
			s68 = v68
			s76 = v76
			s83 = v83
			s91 = v91
			s99 = v99
			s107 = v107
			s115 = v115
			s122 = v122
			s130 = v130
			s138 = v138
			s146 = v146
			s167 = v167
			s173 = v173
			s178 = v178
			s183 = v183
			s188 = v188
			s193 = v193
			s198 = v198
			s202 = v202
			s205 = v205
			s208 = v208
			s211 = v211
			s214 = v214
			s217 = v217
			s220 = v220
			s3 = 0x0
		case 0x3:
			v6 := v0
			var v23 uint64
			if v21 != 0 {
				v23 = 0x4
			} else {
				v23 = 0x3
			}
			v36 := v23
			v37 := v36
			v38 := v37
			v39 := v38
			v50 := v13
			v51 := v50
			v52 := 0x0 & v15
			var v61 uint64
			if v52 != 0 {
				v61 = v56
			} else {
				v61 = v60
			}
			v62 := 0x1 & v21
			var v68 uint64
			if v62 != 0 {
				v68 = 0xc
			} else {
				v68 = v67
			}
			v76 := v69
			v83 := v77
			v91 := v84
			v99 := v92
			v107 := v100
			v115 := v108
			v122 := v116
			v130 := v123
			v138 := v131
			v146 := v139
			v167 := v147
			var v169 uint64
			if v39 == 0x1 {
				v169 = 1
			}
			v170 := 0x0 & v169
			var v173 uint64
			if v170 != 0 {
				v173 = v172
			} else {
				v173 = v168
			}
			var v175 uint64
			if v39 == 0x2 {
				v175 = 1
			}
			v176 := 0x0 & v175
			var v178 uint64
			if v176 != 0 {
				v178 = v177
			} else {
				v178 = v174
			}
			var v180 uint64
			if v39 == 0x3 {
				v180 = 1
			}
			v181 := 0x0 & v180
			var v183 uint64
			if v181 != 0 {
				v183 = v182
			} else {
				v183 = v179
			}
			var v185 uint64
			if v39 == 0x4 {
				v185 = 1
			}
			v186 := 0x1 & v185
			var v188 uint64
			if v186 != 0 {
				v188 = v187
			} else {
				v188 = v184
			}
			var v190 uint64
			if v39 == 0x5 {
				v190 = 1
			}
			v191 := 0x0 & v190
			var v193 uint64
			if v191 != 0 {
				v193 = v192
			} else {
				v193 = v189
			}
			var v195 uint64
			if v39 == 0x6 {
				v195 = 1
			}
			v196 := 0x0 & v195
			var v198 uint64
			if v196 != 0 {
				v198 = v197
			} else {
				v198 = v194
			}
			v200 := 0x0 & v169
			var v202 uint64
			if v200 != 0 {
				v202 = v201
			} else {
				v202 = v199
			}
			var v205 uint64
			if v52 != 0 {
				v205 = v204
			} else {
				v205 = v203
			}
			var v208 uint64
			if v52 != 0 {
				v208 = v207
			} else {
				v208 = v206
			}
			var v211 uint64
			if v52 != 0 {
				v211 = v210
			} else {
				v211 = v209
			}
			var v214 uint64
			if v62 != 0 {
				v214 = v213
			} else {
				v214 = v212
			}
			var v217 uint64
			if v62 != 0 {
				v217 = v216
			} else {
				v217 = v215
			}
			var v220 uint64
			if v62 != 0 {
				v220 = v219
			} else {
				v220 = v218
			}
			s221 = 0x0
			s6 = v6
			s39 = v39
			s51 = v51
			s61 = v61
			s68 = v68
			s76 = v76
			s83 = v83
			s91 = v91
			s99 = v99
			s107 = v107
			s115 = v115
			s122 = v122
			s130 = v130
			s138 = v138
			s146 = v146
			s167 = v167
			s173 = v173
			s178 = v178
			s183 = v183
			s188 = v188
			s193 = v193
			s198 = v198
			s202 = v202
			s205 = v205
			s208 = v208
			s211 = v211
			s214 = v214
			s217 = v217
			s220 = v220
			s3 = 0x0
		case 0x4:
			v6 := v0
			var v28 uint64
			if v27 != 0 {
				v28 = 0x5
			} else {
				v28 = 0x4
			}
			v35 := v28
			v36 := v35
			v37 := v36
			v38 := v37
			v39 := v38
			v50 := v13
			v51 := v50
			v52 := 0x0 & v15
			var v61 uint64
			if v52 != 0 {
				v61 = v56
			} else {
				v61 = v60
			}
			v62 := 0x0 & v21
			var v68 uint64
			if v62 != 0 {
				v68 = 0xc
			} else {
				v68 = v67
			}
			v76 := v75
			v83 := v82
			v91 := v90
			v99 := v98
			v107 := v106
			v115 := v114
			v122 := v121
			v130 := v129
			v138 := v137
			v146 := v145
			v167 := v166
			var v169 uint64
			if v39 == 0x1 {
				v169 = 1
			}
			v170 := 0x0 & v169
			var v173 uint64
			if v170 != 0 {
				v173 = v172
			} else {
				v173 = v168
			}
			var v175 uint64
			if v39 == 0x2 {
				v175 = 1
			}
			v176 := 0x0 & v175
			var v178 uint64
			if v176 != 0 {
				v178 = v177
			} else {
				v178 = v174
			}
			var v180 uint64
			if v39 == 0x3 {
				v180 = 1
			}
			v181 := 0x0 & v180
			var v183 uint64
			if v181 != 0 {
				v183 = v182
			} else {
				v183 = v179
			}
			var v185 uint64
			if v39 == 0x4 {
				v185 = 1
			}
			v186 := 0x0 & v185
			var v188 uint64
			if v186 != 0 {
				v188 = v187
			} else {
				v188 = v184
			}
			var v190 uint64
			if v39 == 0x5 {
				v190 = 1
			}
			v191 := 0x1 & v190
			var v193 uint64
			if v191 != 0 {
				v193 = v192
			} else {
				v193 = v189
			}
			var v195 uint64
			if v39 == 0x6 {
				v195 = 1
			}
			v196 := 0x0 & v195
			var v198 uint64
			if v196 != 0 {
				v198 = v197
			} else {
				v198 = v194
			}
			v200 := 0x0 & v169
			var v202 uint64
			if v200 != 0 {
				v202 = v201
			} else {
				v202 = v199
			}
			var v205 uint64
			if v52 != 0 {
				v205 = v204
			} else {
				v205 = v203
			}
			var v208 uint64
			if v52 != 0 {
				v208 = v207
			} else {
				v208 = v206
			}
			var v211 uint64
			if v52 != 0 {
				v211 = v210
			} else {
				v211 = v209
			}
			var v214 uint64
			if v62 != 0 {
				v214 = v213
			} else {
				v214 = v212
			}
			var v217 uint64
			if v62 != 0 {
				v217 = v216
			} else {
				v217 = v215
			}
			var v220 uint64
			if v62 != 0 {
				v220 = v219
			} else {
				v220 = v218
			}
			s221 = 0x0
			s6 = v6
			s39 = v39
			s51 = v51
			s61 = v61
			s68 = v68
			s76 = v76
			s83 = v83
			s91 = v91
			s99 = v99
			s107 = v107
			s115 = v115
			s122 = v122
			s130 = v130
			s138 = v138
			s146 = v146
			s167 = v167
			s173 = v173
			s178 = v178
			s183 = v183
			s188 = v188
			s193 = v193
			s198 = v198
			s202 = v202
			s205 = v205
			s208 = v208
			s211 = v211
			s214 = v214
			s217 = v217
			s220 = v220
			s3 = 0x0
		case 0x5:
			v6 := v5
			v34 := v33
			v35 := v34
			v36 := v35
			v37 := v36
			v38 := v37
			v39 := v38
			v50 := v13
			v51 := v50
			v52 := 0x0 & v15
			var v61 uint64
			if v52 != 0 {
				v61 = v56
			} else {
				v61 = v60
			}
			v62 := 0x0 & v21
			var v68 uint64
			if v62 != 0 {
				v68 = 0xc
			} else {
				v68 = v67
			}
			v76 := v69
			v83 := v77
			v91 := v84
			v99 := v92
			v107 := v100
			v115 := v108
			v122 := v116
			v130 := v123
			v138 := v131
			v146 := v139
			v167 := v147
			var v169 uint64
			if v39 == 0x1 {
				v169 = 1
			}
			v170 := 0x0 & v169
			var v173 uint64
			if v170 != 0 {
				v173 = v172
			} else {
				v173 = v168
			}
			var v175 uint64
			if v39 == 0x2 {
				v175 = 1
			}
			v176 := 0x0 & v175
			var v178 uint64
			if v176 != 0 {
				v178 = v177
			} else {
				v178 = v174
			}
			var v180 uint64
			if v39 == 0x3 {
				v180 = 1
			}
			v181 := 0x0 & v180
			var v183 uint64
			if v181 != 0 {
				v183 = v182
			} else {
				v183 = v179
			}
			var v185 uint64
			if v39 == 0x4 {
				v185 = 1
			}
			v186 := 0x0 & v185
			var v188 uint64
			if v186 != 0 {
				v188 = v187
			} else {
				v188 = v184
			}
			var v190 uint64
			if v39 == 0x5 {
				v190 = 1
			}
			v191 := 0x0 & v190
			var v193 uint64
			if v191 != 0 {
				v193 = v192
			} else {
				v193 = v189
			}
			var v195 uint64
			if v39 == 0x6 {
				v195 = 1
			}
			v196 := 0x1 & v195
			var v198 uint64
			if v196 != 0 {
				v198 = v197
			} else {
				v198 = v194
			}
			v200 := 0x1 & v169
			var v202 uint64
			if v200 != 0 {
				v202 = v201
			} else {
				v202 = v199
			}
			var v205 uint64
			if v52 != 0 {
				v205 = v204
			} else {
				v205 = v203
			}
			var v208 uint64
			if v52 != 0 {
				v208 = v207
			} else {
				v208 = v206
			}
			var v211 uint64
			if v52 != 0 {
				v211 = v210
			} else {
				v211 = v209
			}
			var v214 uint64
			if v62 != 0 {
				v214 = v213
			} else {
				v214 = v212
			}
			var v217 uint64
			if v62 != 0 {
				v217 = v216
			} else {
				v217 = v215
			}
			var v220 uint64
			if v62 != 0 {
				v220 = v219
			} else {
				v220 = v218
			}
			s221 = 0x0
			s6 = v6
			s39 = v39
			s51 = v51
			s61 = v61
			s68 = v68
			s76 = v76
			s83 = v83
			s91 = v91
			s99 = v99
			s107 = v107
			s115 = v115
			s122 = v122
			s130 = v130
			s138 = v138
			s146 = v146
			s167 = v167
			s173 = v173
			s178 = v178
			s183 = v183
			s188 = v188
			s193 = v193
			s198 = v198
			s202 = v202
			s205 = v205
			s208 = v208
			s211 = v211
			s214 = v214
			s217 = v217
			s220 = v220
			s3 = 0x1
		case 0x6:
			v6 := v0
			v50 := v13
			v51 := v50
			v52 := 0x0 & v15
			var v61 uint64
			if v52 != 0 {
				v61 = v56
			} else {
				v61 = v60
			}
			v62 := 0x0 & v21
			var v68 uint64
			if v62 != 0 {
				v68 = 0xc
			} else {
				v68 = v67
			}
			v76 := v69
			v83 := v77
			v91 := v84
			v99 := v92
			v107 := v100
			v115 := v108
			v122 := v116
			v130 := v123
			v138 := v131
			v146 := v139
			v167 := v147
			v173 := v168
			v178 := v174
			v183 := v179
			v188 := v184
			v193 := v189
			v198 := v194
			v202 := v199
			var v205 uint64
			if v52 != 0 {
				v205 = v204
			} else {
				v205 = v203
			}
			var v208 uint64
			if v52 != 0 {
				v208 = v207
			} else {
				v208 = v206
			}
			var v211 uint64
			if v52 != 0 {
				v211 = v210
			} else {
				v211 = v209
			}
			var v214 uint64
			if v62 != 0 {
				v214 = v213
			} else {
				v214 = v212
			}
			var v217 uint64
			if v62 != 0 {
				v217 = v216
			} else {
				v217 = v215
			}
			var v220 uint64
			if v62 != 0 {
				v220 = v219
			} else {
				v220 = v218
			}
			s221 = 0x1
			s6 = v6
			s39 = 0x6
			s51 = v51
			s61 = v61
			s68 = v68
			s76 = v76
			s83 = v83
			s91 = v91
			s99 = v99
			s107 = v107
			s115 = v115
			s122 = v122
			s130 = v130
			s138 = v138
			s146 = v146
			s167 = v167
			s173 = v173
			s178 = v178
			s183 = v183
			s188 = v188
			s193 = v193
			s198 = v198
			s202 = v202
			s205 = v205
			s208 = v208
			s211 = v211
			s214 = v214
			s217 = v217
			s220 = v220
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
			var v23 uint64
			if v21 != 0 {
				v23 = 0x4
			} else {
				v23 = v1
			}
			var v24 uint64
			if v1 == 0x4 {
				v24 = 1
			}
			var v28 uint64
			if v27 != 0 {
				v28 = 0x5
			} else {
				v28 = v1
			}
			var v34 uint64
			if v3 != 0 {
				v34 = v33
			} else {
				v34 = v1
			}
			var v35 uint64
			if v24 != 0 {
				v35 = v28
			} else {
				v35 = v34
			}
			var v36 uint64
			if v18 != 0 {
				v36 = v23
			} else {
				v36 = v35
			}
			var v37 uint64
			if v12 != 0 {
				v37 = v17
			} else {
				v37 = v36
			}
			var v38 uint64
			if v10 != 0 {
				v38 = 0x2
			} else {
				v38 = v37
			}
			var v39 uint64
			if v8 != 0 {
				v39 = 0x1
			} else {
				v39 = v38
			}
			var v50 uint64
			if v12 != 0 {
				v50 = v49
			} else {
				v50 = v13
			}
			var v51 uint64
			if v10 != 0 {
				v51 = v44
			} else {
				v51 = v50
			}
			v52 := v12 & v15
			var v61 uint64
			if v52 != 0 {
				v61 = v56
			} else {
				v61 = v60
			}
			v62 := v18 & v21
			var v68 uint64
			if v62 != 0 {
				v68 = 0xc
			} else {
				v68 = v67
			}
			var v76 uint64
			if v24 != 0 {
				v76 = v75
			} else {
				v76 = v69
			}
			var v83 uint64
			if v24 != 0 {
				v83 = v82
			} else {
				v83 = v77
			}
			var v91 uint64
			if v24 != 0 {
				v91 = v90
			} else {
				v91 = v84
			}
			var v99 uint64
			if v24 != 0 {
				v99 = v98
			} else {
				v99 = v92
			}
			var v107 uint64
			if v24 != 0 {
				v107 = v106
			} else {
				v107 = v100
			}
			var v115 uint64
			if v24 != 0 {
				v115 = v114
			} else {
				v115 = v108
			}
			var v122 uint64
			if v24 != 0 {
				v122 = v121
			} else {
				v122 = v116
			}
			var v130 uint64
			if v24 != 0 {
				v130 = v129
			} else {
				v130 = v123
			}
			var v138 uint64
			if v24 != 0 {
				v138 = v137
			} else {
				v138 = v131
			}
			var v146 uint64
			if v24 != 0 {
				v146 = v145
			} else {
				v146 = v139
			}
			var v167 uint64
			if v24 != 0 {
				v167 = v166
			} else {
				v167 = v147
			}
			var v169 uint64
			if v39 == 0x1 {
				v169 = 1
			}
			v170 := v8 & v169
			var v173 uint64
			if v170 != 0 {
				v173 = v172
			} else {
				v173 = v168
			}
			var v175 uint64
			if v39 == 0x2 {
				v175 = 1
			}
			v176 := v10 & v175
			var v178 uint64
			if v176 != 0 {
				v178 = v177
			} else {
				v178 = v174
			}
			var v180 uint64
			if v39 == 0x3 {
				v180 = 1
			}
			v181 := v12 & v180
			var v183 uint64
			if v181 != 0 {
				v183 = v182
			} else {
				v183 = v179
			}
			var v185 uint64
			if v39 == 0x4 {
				v185 = 1
			}
			v186 := v18 & v185
			var v188 uint64
			if v186 != 0 {
				v188 = v187
			} else {
				v188 = v184
			}
			var v190 uint64
			if v39 == 0x5 {
				v190 = 1
			}
			v191 := v24 & v190
			var v193 uint64
			if v191 != 0 {
				v193 = v192
			} else {
				v193 = v189
			}
			var v195 uint64
			if v39 == 0x6 {
				v195 = 1
			}
			v196 := v3 & v195
			var v198 uint64
			if v196 != 0 {
				v198 = v197
			} else {
				v198 = v194
			}
			v200 := v3 & v169
			var v202 uint64
			if v200 != 0 {
				v202 = v201
			} else {
				v202 = v199
			}
			var v205 uint64
			if v52 != 0 {
				v205 = v204
			} else {
				v205 = v203
			}
			var v208 uint64
			if v52 != 0 {
				v208 = v207
			} else {
				v208 = v206
			}
			var v211 uint64
			if v52 != 0 {
				v211 = v210
			} else {
				v211 = v209
			}
			var v214 uint64
			if v62 != 0 {
				v214 = v213
			} else {
				v214 = v212
			}
			var v217 uint64
			if v62 != 0 {
				v217 = v216
			} else {
				v217 = v215
			}
			var v220 uint64
			if v62 != 0 {
				v220 = v219
			} else {
				v220 = v218
			}
			var v221 uint64
			if v1 == 0x6 {
				v221 = 1
			}
			s221 = v221
			s6 = v6
			s39 = v39
			s51 = v51
			s61 = v61
			s68 = v68
			s76 = v76
			s83 = v83
			s91 = v91
			s99 = v99
			s107 = v107
			s115 = v115
			s122 = v122
			s130 = v130
			s138 = v138
			s146 = v146
			s167 = v167
			s173 = v173
			s178 = v178
			s183 = v183
			s188 = v188
			s193 = v193
			s198 = v198
			s202 = v202
			s205 = v205
			s208 = v208
			s211 = v211
			s214 = v214
			s217 = v217
			s220 = v220
			s3 = v3
		}
		if s221 != 0 {
			break
		}
		if s3 != 0 {
			if addr := uint64(v0); addr < uint64(len(m1)) {
				m1[addr] = v147
			}
		}
		v0 = s6
		v1 = s39
		v13 = s51
		v19 = s61
		v25 = s68
		v69 = s76
		v77 = s83
		v84 = s91
		v92 = s99
		v100 = s107
		v108 = s115
		v116 = s122
		v123 = s130
		v131 = s138
		v139 = s146
		v147 = s167
		v168 = s173
		v174 = s178
		v179 = s183
		v184 = s188
		v189 = s193
		v194 = s198
		v199 = s202
		v203 = s205
		v206 = s208
		v209 = s211
		v212 = s214
		v215 = s217
		v218 = s220
	}
	vals[0] = v0
	vals[1] = v1
	vals[13] = v13
	vals[19] = v19
	vals[25] = v25
	vals[69] = v69
	vals[77] = v77
	vals[84] = v84
	vals[92] = v92
	vals[100] = v100
	vals[108] = v108
	vals[116] = v116
	vals[123] = v123
	vals[131] = v131
	vals[139] = v139
	vals[147] = v147
	vals[168] = v168
	vals[174] = v174
	vals[179] = v179
	vals[184] = v184
	vals[189] = v189
	vals[194] = v194
	vals[199] = v199
	vals[203] = v203
	vals[206] = v206
	vals[209] = v209
	vals[212] = v212
	vals[215] = v215
	vals[218] = v218
	return n
}

func run_djpeg_slice_all(vals []uint64, mems [][]uint64, max uint64) uint64 {
	_ = vals[84]
	m0 := mems[0]
	v0 := vals[0]
	v15 := vals[15]
	v28 := vals[28]
	v30 := vals[30]
	v34 := vals[34]
	v38 := vals[38]
	v39 := vals[39]
	v47 := vals[47]
	v50 := vals[50]
	v55 := vals[55]
	v60 := vals[60]
	v65 := vals[65]
	v70 := vals[70]
	v75 := vals[75]
	v80 := vals[80]
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
		v32 := (v30 + 0xc) & 0xffffff
		v36 := (v34 + 0x1) & 0xffffff
		var v40 uint64
		if addr := uint64(v15); addr < uint64(len(m0)) {
			v40 = m0[addr] & 0x3ffffff
		}
		v42 := v40 & 0x3f
		v44 := (v42 >> 1)
		v45 := (v39 + v44) & 0xffffff
		v48 := (v47 + 0x1) & 0xffffff
		v53 := (v50 + 0x1) & 0xffffff
		v58 := (v55 + 0x1) & 0xffffff
		v63 := (v60 + 0x1) & 0xffffff
		v68 := (v65 + 0x1) & 0xffffff
		v73 := (v70 + 0x1) & 0xffffff
		v78 := (v75 + 0x1) & 0xffffff
		v82 := (v80 + 0x1) & 0xffffff
		var s24, s27, s33, s37, s46, s49, s54, s59, s64, s69, s74, s79, s83, s84 uint64
		switch v0 {
		case 0x0:
			v27 := v15
			v33 := v30
			v37 := v34
			v46 := v39
			v49 := v47
			v54 := v50
			v59 := v55
			v64 := v60
			v69 := v65
			v74 := v70
			v79 := v75
			v83 := v82
			s84 = 0x0
			s24 = 0x1
			s27 = v27
			s33 = v33
			s37 = v37
			s46 = v46
			s49 = v49
			s54 = v54
			s59 = v59
			s64 = v64
			s69 = v69
			s74 = v74
			s79 = v79
			s83 = v83
		case 0x1:
			v27 := v15
			v33 := v30
			v37 := v34
			v46 := v39
			v49 := v47
			v54 := v50
			v59 := v55
			v64 := v60
			v69 := v65
			v74 := v70
			v79 := v78
			v83 := v80
			s84 = 0x0
			s24 = 0x2
			s27 = v27
			s33 = v33
			s37 = v37
			s46 = v46
			s49 = v49
			s54 = v54
			s59 = v59
			s64 = v64
			s69 = v69
			s74 = v74
			s79 = v79
			s83 = v83
		case 0x2:
			v27 := v15
			v33 := v30
			v37 := v34
			v46 := v45
			v49 := v48
			v54 := v50
			v59 := v55
			v64 := v60
			v69 := v65
			v74 := v73
			v79 := v75
			v83 := v80
			s84 = 0x0
			s24 = 0x3
			s27 = v27
			s33 = v33
			s37 = v37
			s46 = v46
			s49 = v49
			s54 = v54
			s59 = v59
			s64 = v64
			s69 = v69
			s74 = v74
			s79 = v79
			s83 = v83
		case 0x3:
			v27 := v15
			v33 := v32
			v37 := v36
			v46 := v39
			v49 := v47
			v54 := v50
			v59 := v55
			v64 := v60
			v69 := v68
			v74 := v70
			v79 := v75
			v83 := v80
			s84 = 0x0
			s24 = 0x4
			s27 = v27
			s33 = v33
			s37 = v37
			s46 = v46
			s49 = v49
			s54 = v54
			s59 = v59
			s64 = v64
			s69 = v69
			s74 = v74
			s79 = v79
			s83 = v83
		case 0x4:
			v27 := v15
			v33 := v30
			v37 := v34
			v46 := v39
			v49 := v47
			v54 := v50
			v59 := v55
			v64 := v63
			v69 := v65
			v74 := v70
			v79 := v75
			v83 := v80
			s84 = 0x0
			s24 = 0x5
			s27 = v27
			s33 = v33
			s37 = v37
			s46 = v46
			s49 = v49
			s54 = v54
			s59 = v59
			s64 = v64
			s69 = v69
			s74 = v74
			s79 = v79
			s83 = v83
		case 0x5:
			v19 := v18
			v20 := v19
			v21 := v20
			v22 := v21
			v23 := v22
			v24 := v23
			v27 := v26
			v33 := v30
			v37 := v34
			v46 := v39
			v49 := v47
			var v51 uint64
			if v24 == 0x1 {
				v51 = 1
			}
			v52 := 0x1 & v51
			var v54 uint64
			if v52 != 0 {
				v54 = v53
			} else {
				v54 = v50
			}
			var v56 uint64
			if v24 == 0x6 {
				v56 = 1
			}
			v57 := 0x1 & v56
			var v59 uint64
			if v57 != 0 {
				v59 = v58
			} else {
				v59 = v55
			}
			var v61 uint64
			if v24 == 0x5 {
				v61 = 1
			}
			v62 := 0x0 & v61
			var v64 uint64
			if v62 != 0 {
				v64 = v63
			} else {
				v64 = v60
			}
			var v66 uint64
			if v24 == 0x4 {
				v66 = 1
			}
			v67 := 0x0 & v66
			var v69 uint64
			if v67 != 0 {
				v69 = v68
			} else {
				v69 = v65
			}
			var v71 uint64
			if v24 == 0x3 {
				v71 = 1
			}
			v72 := 0x0 & v71
			var v74 uint64
			if v72 != 0 {
				v74 = v73
			} else {
				v74 = v70
			}
			var v76 uint64
			if v24 == 0x2 {
				v76 = 1
			}
			v77 := 0x0 & v76
			var v79 uint64
			if v77 != 0 {
				v79 = v78
			} else {
				v79 = v75
			}
			v81 := 0x0 & v51
			var v83 uint64
			if v81 != 0 {
				v83 = v82
			} else {
				v83 = v80
			}
			s84 = 0x0
			s24 = v24
			s27 = v27
			s33 = v33
			s37 = v37
			s46 = v46
			s49 = v49
			s54 = v54
			s59 = v59
			s64 = v64
			s69 = v69
			s74 = v74
			s79 = v79
			s83 = v83
		case 0x6:
			v27 := v15
			v33 := v30
			v37 := v34
			v46 := v39
			v49 := v47
			v54 := v50
			v59 := v55
			v64 := v60
			v69 := v65
			v74 := v70
			v79 := v75
			v83 := v80
			s84 = 0x1
			s24 = 0x6
			s27 = v27
			s33 = v33
			s37 = v37
			s46 = v46
			s49 = v49
			s54 = v54
			s59 = v59
			s64 = v64
			s69 = v69
			s74 = v74
			s79 = v79
			s83 = v83
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
			var v33 uint64
			if v8 != 0 {
				v33 = v32
			} else {
				v33 = v30
			}
			var v37 uint64
			if v8 != 0 {
				v37 = v36
			} else {
				v37 = v34
			}
			var v46 uint64
			if v6 != 0 {
				v46 = v45
			} else {
				v46 = v39
			}
			var v49 uint64
			if v6 != 0 {
				v49 = v48
			} else {
				v49 = v47
			}
			var v51 uint64
			if v24 == 0x1 {
				v51 = 1
			}
			v52 := v12 & v51
			var v54 uint64
			if v52 != 0 {
				v54 = v53
			} else {
				v54 = v50
			}
			var v56 uint64
			if v24 == 0x6 {
				v56 = 1
			}
			v57 := v12 & v56
			var v59 uint64
			if v57 != 0 {
				v59 = v58
			} else {
				v59 = v55
			}
			var v61 uint64
			if v24 == 0x5 {
				v61 = 1
			}
			v62 := v10 & v61
			var v64 uint64
			if v62 != 0 {
				v64 = v63
			} else {
				v64 = v60
			}
			var v66 uint64
			if v24 == 0x4 {
				v66 = 1
			}
			v67 := v8 & v66
			var v69 uint64
			if v67 != 0 {
				v69 = v68
			} else {
				v69 = v65
			}
			var v71 uint64
			if v24 == 0x3 {
				v71 = 1
			}
			v72 := v6 & v71
			var v74 uint64
			if v72 != 0 {
				v74 = v73
			} else {
				v74 = v70
			}
			var v76 uint64
			if v24 == 0x2 {
				v76 = 1
			}
			v77 := v4 & v76
			var v79 uint64
			if v77 != 0 {
				v79 = v78
			} else {
				v79 = v75
			}
			v81 := v2 & v51
			var v83 uint64
			if v81 != 0 {
				v83 = v82
			} else {
				v83 = v80
			}
			var v84 uint64
			if v0 == 0x6 {
				v84 = 1
			}
			s84 = v84
			s24 = v24
			s27 = v27
			s33 = v33
			s37 = v37
			s46 = v46
			s49 = v49
			s54 = v54
			s59 = v59
			s64 = v64
			s69 = v69
			s74 = v74
			s79 = v79
			s83 = v83
		}
		if s84 != 0 {
			break
		}
		v0 = s24
		v15 = s27
		v28 = 0x0
		v30 = s33
		v34 = s37
		v38 = 0x0
		v39 = s46
		v47 = s49
		v50 = s54
		v55 = s59
		v60 = s64
		v65 = s69
		v70 = s74
		v75 = s79
		v80 = s83
	}
	vals[0] = v0
	vals[15] = v15
	vals[28] = v28
	vals[30] = v30
	vals[34] = v34
	vals[38] = v38
	vals[39] = v39
	vals[47] = v47
	vals[50] = v50
	vals[55] = v55
	vals[60] = v60
	vals[65] = v65
	vals[70] = v70
	vals[75] = v75
	vals[80] = v80
	return n
}

func run_djpeg_slice_t42(vals []uint64, mems [][]uint64, max uint64) uint64 {
	_ = vals[72]
	m0 := mems[0]
	v0 := vals[0]
	v15 := vals[15]
	v28 := vals[28]
	v32 := vals[32]
	v36 := vals[36]
	v44 := vals[44]
	v47 := vals[47]
	v52 := vals[52]
	v57 := vals[57]
	v62 := vals[62]
	v67 := vals[67]
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
		v30 := (v28 + 0xc) & 0xffffff
		v34 := (v32 + 0x1) & 0xffffff
		var v37 uint64
		if addr := uint64(v15); addr < uint64(len(m0)) {
			v37 = m0[addr] & 0x3ffffff
		}
		v39 := v37 & 0x3f
		v41 := (v39 >> 1)
		v42 := (v36 + v41) & 0xffffff
		v45 := (v44 + 0x1) & 0xffffff
		v50 := (v47 + 0x1) & 0xffffff
		v55 := (v52 + 0x1) & 0xffffff
		v60 := (v57 + 0x1) & 0xffffff
		v65 := (v62 + 0x1) & 0xffffff
		v70 := (v67 + 0x1) & 0xffffff
		var s24, s27, s31, s35, s43, s46, s51, s56, s61, s66, s71, s72 uint64
		switch v0 {
		case 0x0:
			v27 := v15
			v31 := v28
			v35 := v32
			v43 := v36
			v46 := v44
			v51 := v47
			v56 := v52
			v61 := v57
			v66 := v62
			v71 := v67
			s72 = 0x0
			s24 = 0x1
			s27 = v27
			s31 = v31
			s35 = v35
			s43 = v43
			s46 = v46
			s51 = v51
			s56 = v56
			s61 = v61
			s66 = v66
			s71 = v71
		case 0x1:
			v27 := v15
			v31 := v28
			v35 := v32
			v43 := v36
			v46 := v44
			v51 := v47
			v56 := v52
			v61 := v57
			v66 := v62
			v71 := v70
			s72 = 0x0
			s24 = 0x2
			s27 = v27
			s31 = v31
			s35 = v35
			s43 = v43
			s46 = v46
			s51 = v51
			s56 = v56
			s61 = v61
			s66 = v66
			s71 = v71
		case 0x2:
			v27 := v15
			v31 := v28
			v35 := v32
			v43 := v42
			v46 := v45
			v51 := v47
			v56 := v52
			v61 := v57
			v66 := v65
			v71 := v67
			s72 = 0x0
			s24 = 0x3
			s27 = v27
			s31 = v31
			s35 = v35
			s43 = v43
			s46 = v46
			s51 = v51
			s56 = v56
			s61 = v61
			s66 = v66
			s71 = v71
		case 0x3:
			v27 := v15
			v31 := v30
			v35 := v34
			v43 := v36
			v46 := v44
			v51 := v47
			v56 := v52
			v61 := v60
			v66 := v62
			v71 := v67
			s72 = 0x0
			s24 = 0x4
			s27 = v27
			s31 = v31
			s35 = v35
			s43 = v43
			s46 = v46
			s51 = v51
			s56 = v56
			s61 = v61
			s66 = v66
			s71 = v71
		case 0x4:
			v27 := v15
			v31 := v28
			v35 := v32
			v43 := v36
			v46 := v44
			v51 := v47
			v56 := v55
			v61 := v57
			v66 := v62
			v71 := v67
			s72 = 0x0
			s24 = 0x5
			s27 = v27
			s31 = v31
			s35 = v35
			s43 = v43
			s46 = v46
			s51 = v51
			s56 = v56
			s61 = v61
			s66 = v66
			s71 = v71
		case 0x5:
			v19 := v18
			v20 := v19
			v21 := v20
			v22 := v21
			v23 := v22
			v24 := v23
			v27 := v26
			v31 := v28
			v35 := v32
			v43 := v36
			v46 := v44
			var v48 uint64
			if v24 == 0x1 {
				v48 = 1
			}
			v49 := 0x1 & v48
			var v51 uint64
			if v49 != 0 {
				v51 = v50
			} else {
				v51 = v47
			}
			var v53 uint64
			if v24 == 0x5 {
				v53 = 1
			}
			v54 := 0x0 & v53
			var v56 uint64
			if v54 != 0 {
				v56 = v55
			} else {
				v56 = v52
			}
			var v58 uint64
			if v24 == 0x4 {
				v58 = 1
			}
			v59 := 0x0 & v58
			var v61 uint64
			if v59 != 0 {
				v61 = v60
			} else {
				v61 = v57
			}
			var v63 uint64
			if v24 == 0x3 {
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
			if v24 == 0x2 {
				v68 = 1
			}
			v69 := 0x0 & v68
			var v71 uint64
			if v69 != 0 {
				v71 = v70
			} else {
				v71 = v67
			}
			s72 = 0x0
			s24 = v24
			s27 = v27
			s31 = v31
			s35 = v35
			s43 = v43
			s46 = v46
			s51 = v51
			s56 = v56
			s61 = v61
			s66 = v66
			s71 = v71
		case 0x6:
			v27 := v15
			v31 := v28
			v35 := v32
			v43 := v36
			v46 := v44
			v51 := v47
			v56 := v52
			v61 := v57
			v66 := v62
			v71 := v67
			s72 = 0x1
			s24 = 0x6
			s27 = v27
			s31 = v31
			s35 = v35
			s43 = v43
			s46 = v46
			s51 = v51
			s56 = v56
			s61 = v61
			s66 = v66
			s71 = v71
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
			var v31 uint64
			if v8 != 0 {
				v31 = v30
			} else {
				v31 = v28
			}
			var v35 uint64
			if v8 != 0 {
				v35 = v34
			} else {
				v35 = v32
			}
			var v43 uint64
			if v6 != 0 {
				v43 = v42
			} else {
				v43 = v36
			}
			var v46 uint64
			if v6 != 0 {
				v46 = v45
			} else {
				v46 = v44
			}
			var v48 uint64
			if v24 == 0x1 {
				v48 = 1
			}
			v49 := v12 & v48
			var v51 uint64
			if v49 != 0 {
				v51 = v50
			} else {
				v51 = v47
			}
			var v53 uint64
			if v24 == 0x5 {
				v53 = 1
			}
			v54 := v10 & v53
			var v56 uint64
			if v54 != 0 {
				v56 = v55
			} else {
				v56 = v52
			}
			var v58 uint64
			if v24 == 0x4 {
				v58 = 1
			}
			v59 := v8 & v58
			var v61 uint64
			if v59 != 0 {
				v61 = v60
			} else {
				v61 = v57
			}
			var v63 uint64
			if v24 == 0x3 {
				v63 = 1
			}
			v64 := v6 & v63
			var v66 uint64
			if v64 != 0 {
				v66 = v65
			} else {
				v66 = v62
			}
			var v68 uint64
			if v24 == 0x2 {
				v68 = 1
			}
			v69 := v4 & v68
			var v71 uint64
			if v69 != 0 {
				v71 = v70
			} else {
				v71 = v67
			}
			var v72 uint64
			if v0 == 0x6 {
				v72 = 1
			}
			s72 = v72
			s24 = v24
			s27 = v27
			s31 = v31
			s35 = v35
			s43 = v43
			s46 = v46
			s51 = v51
			s56 = v56
			s61 = v61
			s66 = v66
			s71 = v71
		}
		if s72 != 0 {
			break
		}
		v0 = s24
		v15 = s27
		v28 = s31
		v32 = s35
		v36 = s43
		v44 = s46
		v47 = s51
		v52 = s56
		v57 = s61
		v62 = s66
		v67 = s71
	}
	vals[0] = v0
	vals[15] = v15
	vals[28] = v28
	vals[32] = v32
	vals[36] = v36
	vals[44] = v44
	vals[47] = v47
	vals[52] = v52
	vals[57] = v57
	vals[62] = v62
	vals[67] = v67
	return n
}

func init() {
	rtl.RegisterNative("389ed69b7a9c6b982aa5e8e0d12ee60c4b53ffdca195a1f4dd386b058c8b985c", "djpeg", run_djpeg)
	rtl.RegisterNative("e69c984a9be3fd18bbf0538a1c6ad75e8d2f913b453267bf16d788920db47fe7", "djpeg_ins", run_djpeg_ins)
	rtl.RegisterNative("a8624f8b57241389602b349714dfdca2a5f7d9936e7029c96959a2438bf00691", "djpeg_pruned", run_djpeg_pruned)
	rtl.RegisterNative("a382f731d6dd2b8cbd099d6e2c57fd843f66b80d06f1d477ddc780593bbbec55", "djpeg_slice_all", run_djpeg_slice_all)
	rtl.RegisterNative("aa58d9dccf8c52a035cf0f978bc3a1d425487b1708f341198db642ad45c518f2", "djpeg_slice_t42", run_djpeg_slice_t42)
}
