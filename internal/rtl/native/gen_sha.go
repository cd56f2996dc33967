// Code generated by rtlgen. DO NOT EDIT.
//
// Regenerate with: go generate ./internal/rtl/native

package native

import "repro/internal/rtl"

func run_sha(vals []uint64, mems [][]uint64, max uint64) uint64 {
	_ = vals[230]
	m0 := mems[0]
	m1 := mems[1]
	m2 := mems[2]
	v3 := vals[3]
	v4 := vals[4]
	v16 := vals[16]
	v28 := vals[28]
	v36 := vals[36]
	v37 := vals[37]
	v38 := vals[38]
	v39 := vals[39]
	v40 := vals[40]
	v41 := vals[41]
	v42 := vals[42]
	v43 := vals[43]
	v44 := vals[44]
	v45 := vals[45]
	v46 := vals[46]
	v47 := vals[47]
	v48 := vals[48]
	v49 := vals[49]
	v50 := vals[50]
	v51 := vals[51]
	v112 := vals[112]
	v113 := vals[113]
	v114 := vals[114]
	v115 := vals[115]
	v116 := vals[116]
	v117 := vals[117]
	v118 := vals[118]
	v119 := vals[119]
	v120 := vals[120]
	v121 := vals[121]
	v122 := vals[122]
	v123 := vals[123]
	v124 := vals[124]
	v125 := vals[125]
	v126 := vals[126]
	v127 := vals[127]
	var n uint64
	for ; n < max; n++ {
		var v1 uint64
		if addr := uint64(0x0); addr < uint64(len(m0)) {
			v1 = m0[addr] & 0xffff
		}
		var v6 uint64
		if v4 != 0x0 {
			v6 = 1
		}
		v7 := (v1 - 0x1) & 0xffff
		v8 := (v7 - v4) & 0xffff
		var v18 uint64
		if v16 != 0x0 {
			v18 = 1
		}
		v20 := (v16 - 0x1) & 0x1f
		var v21 uint64
		if v18 != 0 {
			v21 = v20
		} else {
			v21 = v16
		}
		var v25 uint64
		if v16 == 0x0 {
			v25 = 1
		}
		var v30 uint64
		if v28 != 0x0 {
			v30 = 1
		}
		v32 := (v28 - 0x1) & 0x7f
		var v33 uint64
		if v30 != 0 {
			v33 = v32
		} else {
			v33 = v28
		}
		v35 := (0x3f - v28) & 0x7f
		v53 := (v37 >> 7)
		v55 := (v37 << 25) & 0xffffffff
		v56 := (v53 | v55)
		v58 := (v37 >> 18)
		v60 := (v37 << 14) & 0xffffffff
		v61 := (v58 | v60)
		v62 := (v56 ^ v61)
		v64 := (v37 >> 3)
		v65 := (v62 ^ v64)
		v67 := (v50 >> 17)
		v69 := (v50 << 15) & 0xffffffff
		v70 := (v67 | v69)
		v72 := (v50 >> 19)
		v74 := (v50 << 13) & 0xffffffff
		v75 := (v72 | v74)
		v76 := (v70 ^ v75)
		v78 := (v50 >> 10)
		v79 := (v76 ^ v78)
		v80 := (v79 + v45) & 0xffffffff
		v81 := (v80 + v65) & 0xffffffff
		v82 := (v81 + v36) & 0xffffffff
		v84 := (v8 << 4) & 0xffff
		v85 := (v35 | 0x0)
		v86 := (v84 + v85) & 0xffff
		v87 := (v86 + 0x1) & 0xffff
		v89 := v87 & 0x3ff
		var v90 uint64
		if addr := uint64(v89); addr < uint64(len(m0)) {
			v90 = m0[addr] & 0xffffffff
		}
		var v92 uint64
		if v35 < 0x10 {
			v92 = 1
		}
		var v93 uint64
		if v92 != 0 {
			v93 = v90
		} else {
			v93 = v82
		}
		v128 := v35 & 0x3f
		var v129 uint64
		if addr := uint64(v128); addr < uint64(len(m2)) {
			v129 = m2[addr] & 0xffffffff
		}
		v131 := (v120 >> 6)
		v133 := (v120 << 26) & 0xffffffff
		v134 := (v131 | v133)
		v136 := (v120 >> 11)
		v138 := (v120 << 21) & 0xffffffff
		v139 := (v136 | v138)
		v140 := (v134 ^ v139)
		v141 := (v120 >> 25)
		v142 := (v120 << 7) & 0xffffffff
		v143 := (v141 | v142)
		v144 := (v140 ^ v143)
		v145 := v120 & v122
		v146 := ^v120 & 0xffffffff
		v147 := v146 & v124
		v148 := (v145 ^ v147)
		v149 := (v126 + v144) & 0xffffffff
		v150 := (v149 + v148) & 0xffffffff
		v151 := (v150 + v129) & 0xffffffff
		v152 := (v151 + v93) & 0xffffffff
		v154 := (v112 >> 2)
		v156 := (v112 << 30) & 0xffffffff
		v157 := (v154 | v156)
		v158 := (v112 >> 13)
		v159 := (v112 << 19) & 0xffffffff
		v160 := (v158 | v159)
		v161 := (v157 ^ v160)
		v163 := (v112 >> 22)
		v164 := (v112 << 10) & 0xffffffff
		v165 := (v163 | v164)
		v166 := (v161 ^ v165)
		v167 := v112 & v114
		v168 := v112 & v116
		v169 := (v167 ^ v168)
		v170 := v114 & v116
		v171 := (v169 ^ v170)
		v172 := (v166 + v171) & 0xffffffff
		v173 := (v152 + v172) & 0xffffffff
		v174 := (v118 + v152) & 0xffffffff
		v177 := (v113 + v112) & 0xffffffff
		v184 := (v115 + v114) & 0xffffffff
		v189 := (v117 + v116) & 0xffffffff
		v194 := (v119 + v118) & 0xffffffff
		v199 := (v121 + v120) & 0xffffffff
		v204 := (v123 + v122) & 0xffffffff
		v209 := (v125 + v124) & 0xffffffff
		v214 := (v127 + v126) & 0xffffffff
		v217 := (v4 - 0x1) & 0xffff
		var v220 uint64
		if v28 == 0x0 {
			v220 = 1
		}
		var v223 uint64
		if v6 != 0 {
			v223 = 0x1
		} else {
			v223 = 0x4
		}
		var s22, s34, s96, s97, s98, s99, s100, s101, s102, s103, s104, s105, s106, s107, s108, s109, s110, s111, s176, s178, s181, s183, s185, s188, s190, s193, s195, s198, s200, s203, s205, s208, s210, s213, s215, s219, s229, s230 uint64
		switch v3 {
		case 0x0:
			v13 := 0x0 & v6
			v14 := (0x1 | v13)
			var v22 uint64
			if v14 != 0 {
				v22 = 0xf
			} else {
				v22 = v21
			}
			v26 := 0x0 & v25
			var v34 uint64
			if v26 != 0 {
				v34 = 0x3f
			} else {
				v34 = v33
			}
			v96 := v36
			v97 := v37
			v98 := v38
			v99 := v39
			v100 := v40
			v101 := v41
			v102 := v42
			v103 := v43
			v104 := v44
			v105 := v45
			v106 := v46
			v107 := v47
			v108 := v48
			v109 := v49
			v110 := v50
			v111 := v51
			v175 := v112
			v176 := v175
			v178 := v113
			v182 := v114
			v183 := v182
			v185 := v115
			v187 := v116
			v188 := v187
			v190 := v117
			v192 := v118
			v193 := v192
			v195 := v119
			v197 := v120
			v198 := v197
			v200 := v121
			v202 := v122
			v203 := v202
			v205 := v123
			v207 := v124
			v208 := v207
			v210 := v125
			v212 := v126
			v213 := v212
			v215 := v127
			v219 := v7
			s230 = 0x0
			s229 = 0x1
			s219 = v219
			s22 = v22
			s34 = v34
			s96 = v96
			s97 = v97
			s98 = v98
			s99 = v99
			s100 = v100
			s101 = v101
			s102 = v102
			s103 = v103
			s104 = v104
			s105 = v105
			s106 = v106
			s107 = v107
			s108 = v108
			s109 = v109
			s110 = v110
			s111 = v111
			s176 = v176
			s178 = v178
			s183 = v183
			s185 = v185
			s188 = v188
			s190 = v190
			s193 = v193
			s195 = v195
			s198 = v198
			s200 = v200
			s203 = v203
			s205 = v205
			s208 = v208
			s210 = v210
			s213 = v213
			s215 = v215
			s181 = 0x0
		case 0x1:
			v13 := 0x0 & v6
			v14 := (0x0 | v13)
			var v22 uint64
			if v14 != 0 {
				v22 = 0xf
			} else {
				v22 = v21
			}
			v26 := 0x1 & v25
			var v34 uint64
			if v26 != 0 {
				v34 = 0x3f
			} else {
				v34 = v33
			}
			v96 := v36
			v97 := v37
			v98 := v38
			v99 := v39
			v100 := v40
			v101 := v41
			v102 := v42
			v103 := v43
			v104 := v44
			v105 := v45
			v106 := v46
			v107 := v47
			v108 := v48
			v109 := v49
			v110 := v50
			v111 := v51
			v176 := v113
			v178 := v113
			v183 := v115
			v185 := v115
			v188 := v117
			v190 := v117
			v193 := v119
			v195 := v119
			v198 := v121
			v200 := v121
			v203 := v123
			v205 := v123
			v208 := v125
			v210 := v125
			v213 := v127
			v215 := v127
			var v218 uint64
			if v13 != 0 {
				v218 = v217
			} else {
				v218 = v4
			}
			v219 := v218
			var v227 uint64
			if v25 != 0 {
				v227 = 0x2
			} else {
				v227 = 0x1
			}
			v228 := v227
			v229 := v228
			s230 = 0x0
			s229 = v229
			s219 = v219
			s22 = v22
			s34 = v34
			s96 = v96
			s97 = v97
			s98 = v98
			s99 = v99
			s100 = v100
			s101 = v101
			s102 = v102
			s103 = v103
			s104 = v104
			s105 = v105
			s106 = v106
			s107 = v107
			s108 = v108
			s109 = v109
			s110 = v110
			s111 = v111
			s176 = v176
			s178 = v178
			s183 = v183
			s185 = v185
			s188 = v188
			s190 = v190
			s193 = v193
			s195 = v195
			s198 = v198
			s200 = v200
			s203 = v203
			s205 = v205
			s208 = v208
			s210 = v210
			s213 = v213
			s215 = v215
			s181 = 0x0
		case 0x2:
			v13 := 0x0 & v6
			v14 := (0x0 | v13)
			var v22 uint64
			if v14 != 0 {
				v22 = 0xf
			} else {
				v22 = v21
			}
			v26 := 0x0 & v25
			var v34 uint64
			if v26 != 0 {
				v34 = 0x3f
			} else {
				v34 = v33
			}
			v96 := v37
			v97 := v38
			v98 := v39
			v99 := v40
			v100 := v41
			v101 := v42
			v102 := v43
			v103 := v44
			v104 := v45
			v105 := v46
			v106 := v47
			v107 := v48
			v108 := v49
			v109 := v50
			v110 := v51
			v111 := v93
			v175 := v173
			v176 := v175
			v178 := v113
			v182 := v112
			v183 := v182
			v185 := v115
			v187 := v114
			v188 := v187
			v190 := v117
			v192 := v116
			v193 := v192
			v195 := v119
			v197 := v174
			v198 := v197
			v200 := v121
			v202 := v120
			v203 := v202
			v205 := v123
			v207 := v122
			v208 := v207
			v210 := v125
			v212 := v124
			v213 := v212
			v215 := v127
			var v218 uint64
			if v13 != 0 {
				v218 = v217
			} else {
				v218 = v4
			}
			v219 := v218
			var v225 uint64
			if v220 != 0 {
				v225 = 0x3
			} else {
				v225 = 0x2
			}
			v226 := v225
			v228 := v226
			v229 := v228
			s230 = 0x0
			s229 = v229
			s219 = v219
			s22 = v22
			s34 = v34
			s96 = v96
			s97 = v97
			s98 = v98
			s99 = v99
			s100 = v100
			s101 = v101
			s102 = v102
			s103 = v103
			s104 = v104
			s105 = v105
			s106 = v106
			s107 = v107
			s108 = v108
			s109 = v109
			s110 = v110
			s111 = v111
			s176 = v176
			s178 = v178
			s183 = v183
			s185 = v185
			s188 = v188
			s190 = v190
			s193 = v193
			s195 = v195
			s198 = v198
			s200 = v200
			s203 = v203
			s205 = v205
			s208 = v208
			s210 = v210
			s213 = v213
			s215 = v215
			s181 = 0x0
		case 0x3:
			v13 := 0x1 & v6
			v14 := (0x0 | v13)
			var v22 uint64
			if v14 != 0 {
				v22 = 0xf
			} else {
				v22 = v21
			}
			v26 := 0x0 & v25
			var v34 uint64
			if v26 != 0 {
				v34 = 0x3f
			} else {
				v34 = v33
			}
			v96 := v36
			v97 := v37
			v98 := v38
			v99 := v39
			v100 := v40
			v101 := v41
			v102 := v42
			v103 := v43
			v104 := v44
			v105 := v45
			v106 := v46
			v107 := v47
			v108 := v48
			v109 := v49
			v110 := v50
			v111 := v51
			v175 := v112
			v176 := v175
			v178 := v177
			v182 := v114
			v183 := v182
			v185 := v184
			v187 := v116
			v188 := v187
			v190 := v189
			v192 := v118
			v193 := v192
			v195 := v194
			v197 := v120
			v198 := v197
			v200 := v199
			v202 := v122
			v203 := v202
			v205 := v204
			v207 := v124
			v208 := v207
			v210 := v209
			v212 := v126
			v213 := v212
			v215 := v214
			var v218 uint64
			if v13 != 0 {
				v218 = v217
			} else {
				v218 = v4
			}
			v219 := v218
			v224 := v223
			v226 := v224
			v228 := v226
			v229 := v228
			s230 = 0x0
			s229 = v229
			s219 = v219
			s22 = v22
			s34 = v34
			s96 = v96
			s97 = v97
			s98 = v98
			s99 = v99
			s100 = v100
			s101 = v101
			s102 = v102
			s103 = v103
			s104 = v104
			s105 = v105
			s106 = v106
			s107 = v107
			s108 = v108
			s109 = v109
			s110 = v110
			s111 = v111
			s176 = v176
			s178 = v178
			s183 = v183
			s185 = v185
			s188 = v188
			s190 = v190
			s193 = v193
			s195 = v195
			s198 = v198
			s200 = v200
			s203 = v203
			s205 = v205
			s208 = v208
			s210 = v210
			s213 = v213
			s215 = v215
			s181 = 0x0
		case 0x4:
			v13 := 0x0 & v6
			v14 := (0x0 | v13)
			var v22 uint64
			if v14 != 0 {
				v22 = 0xf
			} else {
				v22 = v21
			}
			v26 := 0x0 & v25
			var v34 uint64
			if v26 != 0 {
				v34 = 0x3f
			} else {
				v34 = v33
			}
			v96 := v36
			v97 := v37
			v98 := v38
			v99 := v39
			v100 := v40
			v101 := v41
			v102 := v42
			v103 := v43
			v104 := v44
			v105 := v45
			v106 := v46
			v107 := v47
			v108 := v48
			v109 := v49
			v110 := v50
			v111 := v51
			v175 := v112
			v176 := v175
			v178 := v113
			v182 := v114
			v183 := v182
			v185 := v115
			v187 := v116
			v188 := v187
			v190 := v117
			v192 := v118
			v193 := v192
			v195 := v119
			v197 := v120
			v198 := v197
			v200 := v121
			v202 := v122
			v203 := v202
			v205 := v123
			v207 := v124
			v208 := v207
			v210 := v125
			v212 := v126
			v213 := v212
			v215 := v127
			var v218 uint64
			if v13 != 0 {
				v218 = v217
			} else {
				v218 = v4
			}
			v219 := v218
			s230 = 0x0
			s229 = 0x5
			s219 = v219
			s22 = v22
			s34 = v34
			s96 = v96
			s97 = v97
			s98 = v98
			s99 = v99
			s100 = v100
			s101 = v101
			s102 = v102
			s103 = v103
			s104 = v104
			s105 = v105
			s106 = v106
			s107 = v107
			s108 = v108
			s109 = v109
			s110 = v110
			s111 = v111
			s176 = v176
			s178 = v178
			s183 = v183
			s185 = v185
			s188 = v188
			s190 = v190
			s193 = v193
			s195 = v195
			s198 = v198
			s200 = v200
			s203 = v203
			s205 = v205
			s208 = v208
			s210 = v210
			s213 = v213
			s215 = v215
			s181 = 0x1
		case 0x5:
			v13 := 0x0 & v6
			v14 := (0x0 | v13)
			var v22 uint64
			if v14 != 0 {
				v22 = 0xf
			} else {
				v22 = v21
			}
			v26 := 0x0 & v25
			var v34 uint64
			if v26 != 0 {
				v34 = 0x3f
			} else {
				v34 = v33
			}
			v96 := v36
			v97 := v37
			v98 := v38
			v99 := v39
			v100 := v40
			v101 := v41
			v102 := v42
			v103 := v43
			v104 := v44
			v105 := v45
			v106 := v46
			v107 := v47
			v108 := v48
			v109 := v49
			v110 := v50
			v111 := v51
			v175 := v112
			v176 := v175
			v178 := v113
			v182 := v114
			v183 := v182
			v185 := v115
			v187 := v116
			v188 := v187
			v190 := v117
			v192 := v118
			v193 := v192
			v195 := v119
			v197 := v120
			v198 := v197
			v200 := v121
			v202 := v122
			v203 := v202
			v205 := v123
			v207 := v124
			v208 := v207
			v210 := v125
			v212 := v126
			v213 := v212
			v215 := v127
			var v218 uint64
			if v13 != 0 {
				v218 = v217
			} else {
				v218 = v4
			}
			v219 := v218
			s230 = 0x1
			s229 = 0x5
			s219 = v219
			s22 = v22
			s34 = v34
			s96 = v96
			s97 = v97
			s98 = v98
			s99 = v99
			s100 = v100
			s101 = v101
			s102 = v102
			s103 = v103
			s104 = v104
			s105 = v105
			s106 = v106
			s107 = v107
			s108 = v108
			s109 = v109
			s110 = v110
			s111 = v111
			s176 = v176
			s178 = v178
			s183 = v183
			s185 = v185
			s188 = v188
			s190 = v190
			s193 = v193
			s195 = v195
			s198 = v198
			s200 = v200
			s203 = v203
			s205 = v205
			s208 = v208
			s210 = v210
			s213 = v213
			s215 = v215
			s181 = 0x0
		default:
			var v10 uint64
			if v3 == 0x0 {
				v10 = 1
			}
			var v12 uint64
			if v3 == 0x3 {
				v12 = 1
			}
			v13 := v12 & v6
			v14 := (v10 | v13)
			var v22 uint64
			if v14 != 0 {
				v22 = 0xf
			} else {
				v22 = v21
			}
			var v24 uint64
			if v3 == 0x1 {
				v24 = 1
			}
			v26 := v24 & v25
			var v34 uint64
			if v26 != 0 {
				v34 = 0x3f
			} else {
				v34 = v33
			}
			var v95 uint64
			if v3 == 0x2 {
				v95 = 1
			}
			var v96 uint64
			if v95 != 0 {
				v96 = v37
			} else {
				v96 = v36
			}
			var v97 uint64
			if v95 != 0 {
				v97 = v38
			} else {
				v97 = v37
			}
			var v98 uint64
			if v95 != 0 {
				v98 = v39
			} else {
				v98 = v38
			}
			var v99 uint64
			if v95 != 0 {
				v99 = v40
			} else {
				v99 = v39
			}
			var v100 uint64
			if v95 != 0 {
				v100 = v41
			} else {
				v100 = v40
			}
			var v101 uint64
			if v95 != 0 {
				v101 = v42
			} else {
				v101 = v41
			}
			var v102 uint64
			if v95 != 0 {
				v102 = v43
			} else {
				v102 = v42
			}
			var v103 uint64
			if v95 != 0 {
				v103 = v44
			} else {
				v103 = v43
			}
			var v104 uint64
			if v95 != 0 {
				v104 = v45
			} else {
				v104 = v44
			}
			var v105 uint64
			if v95 != 0 {
				v105 = v46
			} else {
				v105 = v45
			}
			var v106 uint64
			if v95 != 0 {
				v106 = v47
			} else {
				v106 = v46
			}
			var v107 uint64
			if v95 != 0 {
				v107 = v48
			} else {
				v107 = v47
			}
			var v108 uint64
			if v95 != 0 {
				v108 = v49
			} else {
				v108 = v48
			}
			var v109 uint64
			if v95 != 0 {
				v109 = v50
			} else {
				v109 = v49
			}
			var v110 uint64
			if v95 != 0 {
				v110 = v51
			} else {
				v110 = v50
			}
			var v111 uint64
			if v95 != 0 {
				v111 = v93
			} else {
				v111 = v51
			}
			var v175 uint64
			if v95 != 0 {
				v175 = v173
			} else {
				v175 = v112
			}
			var v176 uint64
			if v24 != 0 {
				v176 = v113
			} else {
				v176 = v175
			}
			var v178 uint64
			if v12 != 0 {
				v178 = v177
			} else {
				v178 = v113
			}
			var v181 uint64
			if v3 == 0x4 {
				v181 = 1
			}
			var v182 uint64
			if v95 != 0 {
				v182 = v112
			} else {
				v182 = v114
			}
			var v183 uint64
			if v24 != 0 {
				v183 = v115
			} else {
				v183 = v182
			}
			var v185 uint64
			if v12 != 0 {
				v185 = v184
			} else {
				v185 = v115
			}
			var v187 uint64
			if v95 != 0 {
				v187 = v114
			} else {
				v187 = v116
			}
			var v188 uint64
			if v24 != 0 {
				v188 = v117
			} else {
				v188 = v187
			}
			var v190 uint64
			if v12 != 0 {
				v190 = v189
			} else {
				v190 = v117
			}
			var v192 uint64
			if v95 != 0 {
				v192 = v116
			} else {
				v192 = v118
			}
			var v193 uint64
			if v24 != 0 {
				v193 = v119
			} else {
				v193 = v192
			}
			var v195 uint64
			if v12 != 0 {
				v195 = v194
			} else {
				v195 = v119
			}
			var v197 uint64
			if v95 != 0 {
				v197 = v174
			} else {
				v197 = v120
			}
			var v198 uint64
			if v24 != 0 {
				v198 = v121
			} else {
				v198 = v197
			}
			var v200 uint64
			if v12 != 0 {
				v200 = v199
			} else {
				v200 = v121
			}
			var v202 uint64
			if v95 != 0 {
				v202 = v120
			} else {
				v202 = v122
			}
			var v203 uint64
			if v24 != 0 {
				v203 = v123
			} else {
				v203 = v202
			}
			var v205 uint64
			if v12 != 0 {
				v205 = v204
			} else {
				v205 = v123
			}
			var v207 uint64
			if v95 != 0 {
				v207 = v122
			} else {
				v207 = v124
			}
			var v208 uint64
			if v24 != 0 {
				v208 = v125
			} else {
				v208 = v207
			}
			var v210 uint64
			if v12 != 0 {
				v210 = v209
			} else {
				v210 = v125
			}
			var v212 uint64
			if v95 != 0 {
				v212 = v124
			} else {
				v212 = v126
			}
			var v213 uint64
			if v24 != 0 {
				v213 = v127
			} else {
				v213 = v212
			}
			var v215 uint64
			if v12 != 0 {
				v215 = v214
			} else {
				v215 = v127
			}
			var v218 uint64
			if v13 != 0 {
				v218 = v217
			} else {
				v218 = v4
			}
			var v219 uint64
			if v10 != 0 {
				v219 = v7
			} else {
				v219 = v218
			}
			var v222 uint64
			if v181 != 0 {
				v222 = 0x5
			} else {
				v222 = v3
			}
			var v224 uint64
			if v12 != 0 {
				v224 = v223
			} else {
				v224 = v222
			}
			var v225 uint64
			if v220 != 0 {
				v225 = 0x3
			} else {
				v225 = v3
			}
			var v226 uint64
			if v95 != 0 {
				v226 = v225
			} else {
				v226 = v224
			}
			var v227 uint64
			if v25 != 0 {
				v227 = 0x2
			} else {
				v227 = v3
			}
			var v228 uint64
			if v24 != 0 {
				v228 = v227
			} else {
				v228 = v226
			}
			var v229 uint64
			if v10 != 0 {
				v229 = 0x1
			} else {
				v229 = v228
			}
			var v230 uint64
			if v3 == 0x5 {
				v230 = 1
			}
			s230 = v230
			s229 = v229
			s219 = v219
			s22 = v22
			s34 = v34
			s96 = v96
			s97 = v97
			s98 = v98
			s99 = v99
			s100 = v100
			s101 = v101
			s102 = v102
			s103 = v103
			s104 = v104
			s105 = v105
			s106 = v106
			s107 = v107
			s108 = v108
			s109 = v109
			s110 = v110
			s111 = v111
			s176 = v176
			s178 = v178
			s183 = v183
			s185 = v185
			s188 = v188
			s190 = v190
			s193 = v193
			s195 = v195
			s198 = v198
			s200 = v200
			s203 = v203
			s205 = v205
			s208 = v208
			s210 = v210
			s213 = v213
			s215 = v215
			s181 = v181
		}
		if s230 != 0 {
			break
		}
		if s181 != 0 {
			if addr := uint64(0x0); addr < uint64(len(m1)) {
				m1[addr] = v113
			}
		}
		if s181 != 0 {
			if addr := uint64(0x1); addr < uint64(len(m1)) {
				m1[addr] = v115
			}
		}
		if s181 != 0 {
			if addr := uint64(0x2); addr < uint64(len(m1)) {
				m1[addr] = v117
			}
		}
		if s181 != 0 {
			if addr := uint64(0x3); addr < uint64(len(m1)) {
				m1[addr] = v119
			}
		}
		if s181 != 0 {
			if addr := uint64(0x4); addr < uint64(len(m1)) {
				m1[addr] = v121
			}
		}
		if s181 != 0 {
			if addr := uint64(0x5); addr < uint64(len(m1)) {
				m1[addr] = v123
			}
		}
		if s181 != 0 {
			if addr := uint64(0x6); addr < uint64(len(m1)) {
				m1[addr] = v125
			}
		}
		if s181 != 0 {
			if addr := uint64(0x7); addr < uint64(len(m1)) {
				m1[addr] = v127
			}
		}
		v3 = s229
		v4 = s219
		v16 = s22
		v28 = s34
		v36 = s96
		v37 = s97
		v38 = s98
		v39 = s99
		v40 = s100
		v41 = s101
		v42 = s102
		v43 = s103
		v44 = s104
		v45 = s105
		v46 = s106
		v47 = s107
		v48 = s108
		v49 = s109
		v50 = s110
		v51 = s111
		v112 = s176
		v113 = s178
		v114 = s183
		v115 = s185
		v116 = s188
		v117 = s190
		v118 = s193
		v119 = s195
		v120 = s198
		v121 = s200
		v122 = s203
		v123 = s205
		v124 = s208
		v125 = s210
		v126 = s213
		v127 = s215
	}
	vals[3] = v3
	vals[4] = v4
	vals[16] = v16
	vals[28] = v28
	vals[36] = v36
	vals[37] = v37
	vals[38] = v38
	vals[39] = v39
	vals[40] = v40
	vals[41] = v41
	vals[42] = v42
	vals[43] = v43
	vals[44] = v44
	vals[45] = v45
	vals[46] = v46
	vals[47] = v47
	vals[48] = v48
	vals[49] = v49
	vals[50] = v50
	vals[51] = v51
	vals[112] = v112
	vals[113] = v113
	vals[114] = v114
	vals[115] = v115
	vals[116] = v116
	vals[117] = v117
	vals[118] = v118
	vals[119] = v119
	vals[120] = v120
	vals[121] = v121
	vals[122] = v122
	vals[123] = v123
	vals[124] = v124
	vals[125] = v125
	vals[126] = v126
	vals[127] = v127
	return n
}

func run_sha_ins(vals []uint64, mems [][]uint64, max uint64) uint64 {
	_ = vals[287]
	m0 := mems[0]
	m1 := mems[1]
	m2 := mems[2]
	v3 := vals[3]
	v4 := vals[4]
	v16 := vals[16]
	v28 := vals[28]
	v36 := vals[36]
	v37 := vals[37]
	v38 := vals[38]
	v39 := vals[39]
	v40 := vals[40]
	v41 := vals[41]
	v42 := vals[42]
	v43 := vals[43]
	v44 := vals[44]
	v45 := vals[45]
	v46 := vals[46]
	v47 := vals[47]
	v48 := vals[48]
	v49 := vals[49]
	v50 := vals[50]
	v51 := vals[51]
	v112 := vals[112]
	v113 := vals[113]
	v114 := vals[114]
	v115 := vals[115]
	v116 := vals[116]
	v117 := vals[117]
	v118 := vals[118]
	v119 := vals[119]
	v120 := vals[120]
	v121 := vals[121]
	v122 := vals[122]
	v123 := vals[123]
	v124 := vals[124]
	v125 := vals[125]
	v126 := vals[126]
	v127 := vals[127]
	v234 := vals[234]
	v239 := vals[239]
	v244 := vals[244]
	v248 := vals[248]
	v253 := vals[253]
	v258 := vals[258]
	v261 := vals[261]
	v264 := vals[264]
	v267 := vals[267]
	v270 := vals[270]
	v273 := vals[273]
	v276 := vals[276]
	v279 := vals[279]
	v282 := vals[282]
	v285 := vals[285]
	var n uint64
	for ; n < max; n++ {
		var v1 uint64
		if addr := uint64(0x0); addr < uint64(len(m0)) {
			v1 = m0[addr] & 0xffff
		}
		var v6 uint64
		if v4 != 0x0 {
			v6 = 1
		}
		v7 := (v1 - 0x1) & 0xffff
		v8 := (v7 - v4) & 0xffff
		var v18 uint64
		if v16 != 0x0 {
			v18 = 1
		}
		v20 := (v16 - 0x1) & 0x1f
		var v21 uint64
		if v18 != 0 {
			v21 = v20
		} else {
			v21 = v16
		}
		var v25 uint64
		if v16 == 0x0 {
			v25 = 1
		}
		var v30 uint64
		if v28 != 0x0 {
			v30 = 1
		}
		v32 := (v28 - 0x1) & 0x7f
		var v33 uint64
		if v30 != 0 {
			v33 = v32
		} else {
			v33 = v28
		}
		v35 := (0x3f - v28) & 0x7f
		v53 := (v37 >> 7)
		v55 := (v37 << 25) & 0xffffffff
		v56 := (v53 | v55)
		v58 := (v37 >> 18)
		v60 := (v37 << 14) & 0xffffffff
		v61 := (v58 | v60)
		v62 := (v56 ^ v61)
		v64 := (v37 >> 3)
		v65 := (v62 ^ v64)
		v67 := (v50 >> 17)
		v69 := (v50 << 15) & 0xffffffff
		v70 := (v67 | v69)
		v72 := (v50 >> 19)
		v74 := (v50 << 13) & 0xffffffff
		v75 := (v72 | v74)
		v76 := (v70 ^ v75)
		v78 := (v50 >> 10)
		v79 := (v76 ^ v78)
		v80 := (v79 + v45) & 0xffffffff
		v81 := (v80 + v65) & 0xffffffff
		v82 := (v81 + v36) & 0xffffffff
		v84 := (v8 << 4) & 0xffff
		v85 := (v35 | 0x0)
		v86 := (v84 + v85) & 0xffff
		v87 := (v86 + 0x1) & 0xffff
		v89 := v87 & 0x3ff
		var v90 uint64
		if addr := uint64(v89); addr < uint64(len(m0)) {
			v90 = m0[addr] & 0xffffffff
		}
		var v92 uint64
		if v35 < 0x10 {
			v92 = 1
		}
		var v93 uint64
		if v92 != 0 {
			v93 = v90
		} else {
			v93 = v82
		}
		v128 := v35 & 0x3f
		var v129 uint64
		if addr := uint64(v128); addr < uint64(len(m2)) {
			v129 = m2[addr] & 0xffffffff
		}
		v131 := (v120 >> 6)
		v133 := (v120 << 26) & 0xffffffff
		v134 := (v131 | v133)
		v136 := (v120 >> 11)
		v138 := (v120 << 21) & 0xffffffff
		v139 := (v136 | v138)
		v140 := (v134 ^ v139)
		v141 := (v120 >> 25)
		v142 := (v120 << 7) & 0xffffffff
		v143 := (v141 | v142)
		v144 := (v140 ^ v143)
		v145 := v120 & v122
		v146 := ^v120 & 0xffffffff
		v147 := v146 & v124
		v148 := (v145 ^ v147)
		v149 := (v126 + v144) & 0xffffffff
		v150 := (v149 + v148) & 0xffffffff
		v151 := (v150 + v129) & 0xffffffff
		v152 := (v151 + v93) & 0xffffffff
		v154 := (v112 >> 2)
		v156 := (v112 << 30) & 0xffffffff
		v157 := (v154 | v156)
		v158 := (v112 >> 13)
		v159 := (v112 << 19) & 0xffffffff
		v160 := (v158 | v159)
		v161 := (v157 ^ v160)
		v163 := (v112 >> 22)
		v164 := (v112 << 10) & 0xffffffff
		v165 := (v163 | v164)
		v166 := (v161 ^ v165)
		v167 := v112 & v114
		v168 := v112 & v116
		v169 := (v167 ^ v168)
		v170 := v114 & v116
		v171 := (v169 ^ v170)
		v172 := (v166 + v171) & 0xffffffff
		v173 := (v152 + v172) & 0xffffffff
		v174 := (v118 + v152) & 0xffffffff
		v177 := (v113 + v112) & 0xffffffff
		v184 := (v115 + v114) & 0xffffffff
		v189 := (v117 + v116) & 0xffffffff
		v194 := (v119 + v118) & 0xffffffff
		v199 := (v121 + v120) & 0xffffffff
		v204 := (v123 + v122) & 0xffffffff
		v209 := (v125 + v124) & 0xffffffff
		v214 := (v127 + v126) & 0xffffffff
		v217 := (v4 - 0x1) & 0xffff
		var v220 uint64
		if v28 == 0x0 {
			v220 = 1
		}
		var v223 uint64
		if v6 != 0 {
			v223 = 0x1
		} else {
			v223 = 0x4
		}
		v235 := (v234 + 0x1) & 0xffffff
		v240 := (v239 + 0x1) & 0xffffff
		v245 := (v244 + 0x1) & 0xffffff
		v249 := (v248 + 0x1) & 0xffffff
		v254 := (v253 + 0x1) & 0xffffff
		v259 := (v258 + 0x1) & 0xffffff
		v262 := (v261 + 0x1) & 0xffffff
		v265 := (v264 + v7) & 0xffffff
		v268 := (v267 + v4) & 0xffffff
		v271 := (v270 + 0x1) & 0xffffff
		v274 := (v273 + 0xf) & 0xffffff
		v277 := (v276 + v16) & 0xffffff
		v280 := (v279 + 0x1) & 0xffffff
		v283 := (v282 + 0x3f) & 0xffffff
		v286 := (v285 + v28) & 0xffffff
		var s22, s34, s96, s97, s98, s99, s100, s101, s102, s103, s104, s105, s106, s107, s108, s109, s110, s111, s176, s178, s181, s183, s185, s188, s190, s193, s195, s198, s200, s203, s205, s208, s210, s213, s215, s219, s229, s230, s236, s241, s246, s250, s255, s260, s263, s266, s269, s272, s275, s278, s281, s284, s287 uint64
		switch v3 {
		case 0x0:
			v13 := 0x0 & v6
			v14 := (0x1 | v13)
			var v22 uint64
			if v14 != 0 {
				v22 = 0xf
			} else {
				v22 = v21
			}
			v26 := 0x0 & v25
			var v34 uint64
			if v26 != 0 {
				v34 = 0x3f
			} else {
				v34 = v33
			}
			v96 := v36
			v97 := v37
			v98 := v38
			v99 := v39
			v100 := v40
			v101 := v41
			v102 := v42
			v103 := v43
			v104 := v44
			v105 := v45
			v106 := v46
			v107 := v47
			v108 := v48
			v109 := v49
			v110 := v50
			v111 := v51
			v175 := v112
			v176 := v175
			v178 := v113
			v182 := v114
			v183 := v182
			v185 := v115
			v187 := v116
			v188 := v187
			v190 := v117
			v192 := v118
			v193 := v192
			v195 := v119
			v197 := v120
			v198 := v197
			v200 := v121
			v202 := v122
			v203 := v202
			v205 := v123
			v207 := v124
			v208 := v207
			v210 := v125
			v212 := v126
			v213 := v212
			v215 := v127
			v219 := v7
			v236 := v235
			v241 := v239
			v246 := v244
			v250 := v248
			v255 := v253
			v260 := v258
			v263 := v262
			v266 := v265
			v269 := v268
			var v272 uint64
			if v14 != 0 {
				v272 = v271
			} else {
				v272 = v270
			}
			var v275 uint64
			if v14 != 0 {
				v275 = v274
			} else {
				v275 = v273
			}
			var v278 uint64
			if v14 != 0 {
				v278 = v277
			} else {
				v278 = v276
			}
			var v281 uint64
			if v26 != 0 {
				v281 = v280
			} else {
				v281 = v279
			}
			var v284 uint64
			if v26 != 0 {
				v284 = v283
			} else {
				v284 = v282
			}
			var v287 uint64
			if v26 != 0 {
				v287 = v286
			} else {
				v287 = v285
			}
			s230 = 0x0
			s229 = 0x1
			s219 = v219
			s22 = v22
			s34 = v34
			s96 = v96
			s97 = v97
			s98 = v98
			s99 = v99
			s100 = v100
			s101 = v101
			s102 = v102
			s103 = v103
			s104 = v104
			s105 = v105
			s106 = v106
			s107 = v107
			s108 = v108
			s109 = v109
			s110 = v110
			s111 = v111
			s176 = v176
			s178 = v178
			s183 = v183
			s185 = v185
			s188 = v188
			s190 = v190
			s193 = v193
			s195 = v195
			s198 = v198
			s200 = v200
			s203 = v203
			s205 = v205
			s208 = v208
			s210 = v210
			s213 = v213
			s215 = v215
			s236 = v236
			s241 = v241
			s246 = v246
			s250 = v250
			s255 = v255
			s260 = v260
			s263 = v263
			s266 = v266
			s269 = v269
			s272 = v272
			s275 = v275
			s278 = v278
			s281 = v281
			s284 = v284
			s287 = v287
			s181 = 0x0
		case 0x1:
			v13 := 0x0 & v6
			v14 := (0x0 | v13)
			var v22 uint64
			if v14 != 0 {
				v22 = 0xf
			} else {
				v22 = v21
			}
			v26 := 0x1 & v25
			var v34 uint64
			if v26 != 0 {
				v34 = 0x3f
			} else {
				v34 = v33
			}
			v96 := v36
			v97 := v37
			v98 := v38
			v99 := v39
			v100 := v40
			v101 := v41
			v102 := v42
			v103 := v43
			v104 := v44
			v105 := v45
			v106 := v46
			v107 := v47
			v108 := v48
			v109 := v49
			v110 := v50
			v111 := v51
			v176 := v113
			v178 := v113
			v183 := v115
			v185 := v115
			v188 := v117
			v190 := v117
			v193 := v119
			v195 := v119
			v198 := v121
			v200 := v121
			v203 := v123
			v205 := v123
			v208 := v125
			v210 := v125
			v213 := v127
			v215 := v127
			var v218 uint64
			if v13 != 0 {
				v218 = v217
			} else {
				v218 = v4
			}
			v219 := v218
			var v227 uint64
			if v25 != 0 {
				v227 = 0x2
			} else {
				v227 = 0x1
			}
			v228 := v227
			v229 := v228
			var v231 uint64
			if v229 == 0x1 {
				v231 = 1
			}
			v232 := 0x0 & v231
			var v236 uint64
			if v232 != 0 {
				v236 = v235
			} else {
				v236 = v234
			}
			var v237 uint64
			if v229 == 0x2 {
				v237 = 1
			}
			v238 := 0x1 & v237
			var v241 uint64
			if v238 != 0 {
				v241 = v240
			} else {
				v241 = v239
			}
			var v242 uint64
			if v229 == 0x3 {
				v242 = 1
			}
			v243 := 0x0 & v242
			var v246 uint64
			if v243 != 0 {
				v246 = v245
			} else {
				v246 = v244
			}
			v247 := 0x0 & v231
			var v250 uint64
			if v247 != 0 {
				v250 = v249
			} else {
				v250 = v248
			}
			var v251 uint64
			if v229 == 0x4 {
				v251 = 1
			}
			v252 := 0x0 & v251
			var v255 uint64
			if v252 != 0 {
				v255 = v254
			} else {
				v255 = v253
			}
			var v256 uint64
			if v229 == 0x5 {
				v256 = 1
			}
			v257 := 0x0 & v256
			var v260 uint64
			if v257 != 0 {
				v260 = v259
			} else {
				v260 = v258
			}
			v263 := v261
			v266 := v264
			v269 := v267
			var v272 uint64
			if v14 != 0 {
				v272 = v271
			} else {
				v272 = v270
			}
			var v275 uint64
			if v14 != 0 {
				v275 = v274
			} else {
				v275 = v273
			}
			var v278 uint64
			if v14 != 0 {
				v278 = v277
			} else {
				v278 = v276
			}
			var v281 uint64
			if v26 != 0 {
				v281 = v280
			} else {
				v281 = v279
			}
			var v284 uint64
			if v26 != 0 {
				v284 = v283
			} else {
				v284 = v282
			}
			var v287 uint64
			if v26 != 0 {
				v287 = v286
			} else {
				v287 = v285
			}
			s230 = 0x0
			s229 = v229
			s219 = v219
			s22 = v22
			s34 = v34
			s96 = v96
			s97 = v97
			s98 = v98
			s99 = v99
			s100 = v100
			s101 = v101
			s102 = v102
			s103 = v103
			s104 = v104
			s105 = v105
			s106 = v106
			s107 = v107
			s108 = v108
			s109 = v109
			s110 = v110
			s111 = v111
			s176 = v176
			s178 = v178
			s183 = v183
			s185 = v185
			s188 = v188
			s190 = v190
			s193 = v193
			s195 = v195
			s198 = v198
			s200 = v200
			s203 = v203
			s205 = v205
			s208 = v208
			s210 = v210
			s213 = v213
			s215 = v215
			s236 = v236
			s241 = v241
			s246 = v246
			s250 = v250
			s255 = v255
			s260 = v260
			s263 = v263
			s266 = v266
			s269 = v269
			s272 = v272
			s275 = v275
			s278 = v278
			s281 = v281
			s284 = v284
			s287 = v287
			s181 = 0x0
		case 0x2:
			v13 := 0x0 & v6
			v14 := (0x0 | v13)
			var v22 uint64
			if v14 != 0 {
				v22 = 0xf
			} else {
				v22 = v21
			}
			v26 := 0x0 & v25
			var v34 uint64
			if v26 != 0 {
				v34 = 0x3f
			} else {
				v34 = v33
			}
			v96 := v37
			v97 := v38
			v98 := v39
			v99 := v40
			v100 := v41
			v101 := v42
			v102 := v43
			v103 := v44
			v104 := v45
			v105 := v46
			v106 := v47
			v107 := v48
			v108 := v49
			v109 := v50
			v110 := v51
			v111 := v93
			v175 := v173
			v176 := v175
			v178 := v113
			v182 := v112
			v183 := v182
			v185 := v115
			v187 := v114
			v188 := v187
			v190 := v117
			v192 := v116
			v193 := v192
			v195 := v119
			v197 := v174
			v198 := v197
			v200 := v121
			v202 := v120
			v203 := v202
			v205 := v123
			v207 := v122
			v208 := v207
			v210 := v125
			v212 := v124
			v213 := v212
			v215 := v127
			var v218 uint64
			if v13 != 0 {
				v218 = v217
			} else {
				v218 = v4
			}
			v219 := v218
			var v225 uint64
			if v220 != 0 {
				v225 = 0x3
			} else {
				v225 = 0x2
			}
			v226 := v225
			v228 := v226
			v229 := v228
			var v231 uint64
			if v229 == 0x1 {
				v231 = 1
			}
			v232 := 0x0 & v231
			var v236 uint64
			if v232 != 0 {
				v236 = v235
			} else {
				v236 = v234
			}
			var v237 uint64
			if v229 == 0x2 {
				v237 = 1
			}
			v238 := 0x0 & v237
			var v241 uint64
			if v238 != 0 {
				v241 = v240
			} else {
				v241 = v239
			}
			var v242 uint64
			if v229 == 0x3 {
				v242 = 1
			}
			v243 := 0x1 & v242
			var v246 uint64
			if v243 != 0 {
				v246 = v245
			} else {
				v246 = v244
			}
			v247 := 0x0 & v231
			var v250 uint64
			if v247 != 0 {
				v250 = v249
			} else {
				v250 = v248
			}
			var v251 uint64
			if v229 == 0x4 {
				v251 = 1
			}
			v252 := 0x0 & v251
			var v255 uint64
			if v252 != 0 {
				v255 = v254
			} else {
				v255 = v253
			}
			var v256 uint64
			if v229 == 0x5 {
				v256 = 1
			}
			v257 := 0x0 & v256
			var v260 uint64
			if v257 != 0 {
				v260 = v259
			} else {
				v260 = v258
			}
			v263 := v261
			v266 := v264
			v269 := v267
			var v272 uint64
			if v14 != 0 {
				v272 = v271
			} else {
				v272 = v270
			}
			var v275 uint64
			if v14 != 0 {
				v275 = v274
			} else {
				v275 = v273
			}
			var v278 uint64
			if v14 != 0 {
				v278 = v277
			} else {
				v278 = v276
			}
			var v281 uint64
			if v26 != 0 {
				v281 = v280
			} else {
				v281 = v279
			}
			var v284 uint64
			if v26 != 0 {
				v284 = v283
			} else {
				v284 = v282
			}
			var v287 uint64
			if v26 != 0 {
				v287 = v286
			} else {
				v287 = v285
			}
			s230 = 0x0
			s229 = v229
			s219 = v219
			s22 = v22
			s34 = v34
			s96 = v96
			s97 = v97
			s98 = v98
			s99 = v99
			s100 = v100
			s101 = v101
			s102 = v102
			s103 = v103
			s104 = v104
			s105 = v105
			s106 = v106
			s107 = v107
			s108 = v108
			s109 = v109
			s110 = v110
			s111 = v111
			s176 = v176
			s178 = v178
			s183 = v183
			s185 = v185
			s188 = v188
			s190 = v190
			s193 = v193
			s195 = v195
			s198 = v198
			s200 = v200
			s203 = v203
			s205 = v205
			s208 = v208
			s210 = v210
			s213 = v213
			s215 = v215
			s236 = v236
			s241 = v241
			s246 = v246
			s250 = v250
			s255 = v255
			s260 = v260
			s263 = v263
			s266 = v266
			s269 = v269
			s272 = v272
			s275 = v275
			s278 = v278
			s281 = v281
			s284 = v284
			s287 = v287
			s181 = 0x0
		case 0x3:
			v13 := 0x1 & v6
			v14 := (0x0 | v13)
			var v22 uint64
			if v14 != 0 {
				v22 = 0xf
			} else {
				v22 = v21
			}
			v26 := 0x0 & v25
			var v34 uint64
			if v26 != 0 {
				v34 = 0x3f
			} else {
				v34 = v33
			}
			v96 := v36
			v97 := v37
			v98 := v38
			v99 := v39
			v100 := v40
			v101 := v41
			v102 := v42
			v103 := v43
			v104 := v44
			v105 := v45
			v106 := v46
			v107 := v47
			v108 := v48
			v109 := v49
			v110 := v50
			v111 := v51
			v175 := v112
			v176 := v175
			v178 := v177
			v182 := v114
			v183 := v182
			v185 := v184
			v187 := v116
			v188 := v187
			v190 := v189
			v192 := v118
			v193 := v192
			v195 := v194
			v197 := v120
			v198 := v197
			v200 := v199
			v202 := v122
			v203 := v202
			v205 := v204
			v207 := v124
			v208 := v207
			v210 := v209
			v212 := v126
			v213 := v212
			v215 := v214
			var v218 uint64
			if v13 != 0 {
				v218 = v217
			} else {
				v218 = v4
			}
			v219 := v218
			v224 := v223
			v226 := v224
			v228 := v226
			v229 := v228
			var v231 uint64
			if v229 == 0x1 {
				v231 = 1
			}
			v232 := 0x0 & v231
			var v236 uint64
			if v232 != 0 {
				v236 = v235
			} else {
				v236 = v234
			}
			var v237 uint64
			if v229 == 0x2 {
				v237 = 1
			}
			v238 := 0x0 & v237
			var v241 uint64
			if v238 != 0 {
				v241 = v240
			} else {
				v241 = v239
			}
			var v242 uint64
			if v229 == 0x3 {
				v242 = 1
			}
			v243 := 0x0 & v242
			var v246 uint64
			if v243 != 0 {
				v246 = v245
			} else {
				v246 = v244
			}
			v247 := 0x1 & v231
			var v250 uint64
			if v247 != 0 {
				v250 = v249
			} else {
				v250 = v248
			}
			var v251 uint64
			if v229 == 0x4 {
				v251 = 1
			}
			v252 := 0x1 & v251
			var v255 uint64
			if v252 != 0 {
				v255 = v254
			} else {
				v255 = v253
			}
			var v256 uint64
			if v229 == 0x5 {
				v256 = 1
			}
			v257 := 0x0 & v256
			var v260 uint64
			if v257 != 0 {
				v260 = v259
			} else {
				v260 = v258
			}
			v263 := v261
			v266 := v264
			v269 := v267
			var v272 uint64
			if v14 != 0 {
				v272 = v271
			} else {
				v272 = v270
			}
			var v275 uint64
			if v14 != 0 {
				v275 = v274
			} else {
				v275 = v273
			}
			var v278 uint64
			if v14 != 0 {
				v278 = v277
			} else {
				v278 = v276
			}
			var v281 uint64
			if v26 != 0 {
				v281 = v280
			} else {
				v281 = v279
			}
			var v284 uint64
			if v26 != 0 {
				v284 = v283
			} else {
				v284 = v282
			}
			var v287 uint64
			if v26 != 0 {
				v287 = v286
			} else {
				v287 = v285
			}
			s230 = 0x0
			s229 = v229
			s219 = v219
			s22 = v22
			s34 = v34
			s96 = v96
			s97 = v97
			s98 = v98
			s99 = v99
			s100 = v100
			s101 = v101
			s102 = v102
			s103 = v103
			s104 = v104
			s105 = v105
			s106 = v106
			s107 = v107
			s108 = v108
			s109 = v109
			s110 = v110
			s111 = v111
			s176 = v176
			s178 = v178
			s183 = v183
			s185 = v185
			s188 = v188
			s190 = v190
			s193 = v193
			s195 = v195
			s198 = v198
			s200 = v200
			s203 = v203
			s205 = v205
			s208 = v208
			s210 = v210
			s213 = v213
			s215 = v215
			s236 = v236
			s241 = v241
			s246 = v246
			s250 = v250
			s255 = v255
			s260 = v260
			s263 = v263
			s266 = v266
			s269 = v269
			s272 = v272
			s275 = v275
			s278 = v278
			s281 = v281
			s284 = v284
			s287 = v287
			s181 = 0x0
		case 0x4:
			v13 := 0x0 & v6
			v14 := (0x0 | v13)
			var v22 uint64
			if v14 != 0 {
				v22 = 0xf
			} else {
				v22 = v21
			}
			v26 := 0x0 & v25
			var v34 uint64
			if v26 != 0 {
				v34 = 0x3f
			} else {
				v34 = v33
			}
			v96 := v36
			v97 := v37
			v98 := v38
			v99 := v39
			v100 := v40
			v101 := v41
			v102 := v42
			v103 := v43
			v104 := v44
			v105 := v45
			v106 := v46
			v107 := v47
			v108 := v48
			v109 := v49
			v110 := v50
			v111 := v51
			v175 := v112
			v176 := v175
			v178 := v113
			v182 := v114
			v183 := v182
			v185 := v115
			v187 := v116
			v188 := v187
			v190 := v117
			v192 := v118
			v193 := v192
			v195 := v119
			v197 := v120
			v198 := v197
			v200 := v121
			v202 := v122
			v203 := v202
			v205 := v123
			v207 := v124
			v208 := v207
			v210 := v125
			v212 := v126
			v213 := v212
			v215 := v127
			var v218 uint64
			if v13 != 0 {
				v218 = v217
			} else {
				v218 = v4
			}
			v219 := v218
			v236 := v234
			v241 := v239
			v246 := v244
			v250 := v248
			v255 := v253
			v260 := v259
			v263 := v261
			v266 := v264
			v269 := v267
			var v272 uint64
			if v14 != 0 {
				v272 = v271
			} else {
				v272 = v270
			}
			var v275 uint64
			if v14 != 0 {
				v275 = v274
			} else {
				v275 = v273
			}
			var v278 uint64
			if v14 != 0 {
				v278 = v277
			} else {
				v278 = v276
			}
			var v281 uint64
			if v26 != 0 {
				v281 = v280
			} else {
				v281 = v279
			}
			var v284 uint64
			if v26 != 0 {
				v284 = v283
			} else {
				v284 = v282
			}
			var v287 uint64
			if v26 != 0 {
				v287 = v286
			} else {
				v287 = v285
			}
			s230 = 0x0
			s229 = 0x5
			s219 = v219
			s22 = v22
			s34 = v34
			s96 = v96
			s97 = v97
			s98 = v98
			s99 = v99
			s100 = v100
			s101 = v101
			s102 = v102
			s103 = v103
			s104 = v104
			s105 = v105
			s106 = v106
			s107 = v107
			s108 = v108
			s109 = v109
			s110 = v110
			s111 = v111
			s176 = v176
			s178 = v178
			s183 = v183
			s185 = v185
			s188 = v188
			s190 = v190
			s193 = v193
			s195 = v195
			s198 = v198
			s200 = v200
			s203 = v203
			s205 = v205
			s208 = v208
			s210 = v210
			s213 = v213
			s215 = v215
			s236 = v236
			s241 = v241
			s246 = v246
			s250 = v250
			s255 = v255
			s260 = v260
			s263 = v263
			s266 = v266
			s269 = v269
			s272 = v272
			s275 = v275
			s278 = v278
			s281 = v281
			s284 = v284
			s287 = v287
			s181 = 0x1
		case 0x5:
			v13 := 0x0 & v6
			v14 := (0x0 | v13)
			var v22 uint64
			if v14 != 0 {
				v22 = 0xf
			} else {
				v22 = v21
			}
			v26 := 0x0 & v25
			var v34 uint64
			if v26 != 0 {
				v34 = 0x3f
			} else {
				v34 = v33
			}
			v96 := v36
			v97 := v37
			v98 := v38
			v99 := v39
			v100 := v40
			v101 := v41
			v102 := v42
			v103 := v43
			v104 := v44
			v105 := v45
			v106 := v46
			v107 := v47
			v108 := v48
			v109 := v49
			v110 := v50
			v111 := v51
			v175 := v112
			v176 := v175
			v178 := v113
			v182 := v114
			v183 := v182
			v185 := v115
			v187 := v116
			v188 := v187
			v190 := v117
			v192 := v118
			v193 := v192
			v195 := v119
			v197 := v120
			v198 := v197
			v200 := v121
			v202 := v122
			v203 := v202
			v205 := v123
			v207 := v124
			v208 := v207
			v210 := v125
			v212 := v126
			v213 := v212
			v215 := v127
			var v218 uint64
			if v13 != 0 {
				v218 = v217
			} else {
				v218 = v4
			}
			v219 := v218
			v236 := v234
			v241 := v239
			v246 := v244
			v250 := v248
			v255 := v253
			v260 := v258
			v263 := v261
			v266 := v264
			v269 := v267
			var v272 uint64
			if v14 != 0 {
				v272 = v271
			} else {
				v272 = v270
			}
			var v275 uint64
			if v14 != 0 {
				v275 = v274
			} else {
				v275 = v273
			}
			var v278 uint64
			if v14 != 0 {
				v278 = v277
			} else {
				v278 = v276
			}
			var v281 uint64
			if v26 != 0 {
				v281 = v280
			} else {
				v281 = v279
			}
			var v284 uint64
			if v26 != 0 {
				v284 = v283
			} else {
				v284 = v282
			}
			var v287 uint64
			if v26 != 0 {
				v287 = v286
			} else {
				v287 = v285
			}
			s230 = 0x1
			s229 = 0x5
			s219 = v219
			s22 = v22
			s34 = v34
			s96 = v96
			s97 = v97
			s98 = v98
			s99 = v99
			s100 = v100
			s101 = v101
			s102 = v102
			s103 = v103
			s104 = v104
			s105 = v105
			s106 = v106
			s107 = v107
			s108 = v108
			s109 = v109
			s110 = v110
			s111 = v111
			s176 = v176
			s178 = v178
			s183 = v183
			s185 = v185
			s188 = v188
			s190 = v190
			s193 = v193
			s195 = v195
			s198 = v198
			s200 = v200
			s203 = v203
			s205 = v205
			s208 = v208
			s210 = v210
			s213 = v213
			s215 = v215
			s236 = v236
			s241 = v241
			s246 = v246
			s250 = v250
			s255 = v255
			s260 = v260
			s263 = v263
			s266 = v266
			s269 = v269
			s272 = v272
			s275 = v275
			s278 = v278
			s281 = v281
			s284 = v284
			s287 = v287
			s181 = 0x0
		default:
			var v10 uint64
			if v3 == 0x0 {
				v10 = 1
			}
			var v12 uint64
			if v3 == 0x3 {
				v12 = 1
			}
			v13 := v12 & v6
			v14 := (v10 | v13)
			var v22 uint64
			if v14 != 0 {
				v22 = 0xf
			} else {
				v22 = v21
			}
			var v24 uint64
			if v3 == 0x1 {
				v24 = 1
			}
			v26 := v24 & v25
			var v34 uint64
			if v26 != 0 {
				v34 = 0x3f
			} else {
				v34 = v33
			}
			var v95 uint64
			if v3 == 0x2 {
				v95 = 1
			}
			var v96 uint64
			if v95 != 0 {
				v96 = v37
			} else {
				v96 = v36
			}
			var v97 uint64
			if v95 != 0 {
				v97 = v38
			} else {
				v97 = v37
			}
			var v98 uint64
			if v95 != 0 {
				v98 = v39
			} else {
				v98 = v38
			}
			var v99 uint64
			if v95 != 0 {
				v99 = v40
			} else {
				v99 = v39
			}
			var v100 uint64
			if v95 != 0 {
				v100 = v41
			} else {
				v100 = v40
			}
			var v101 uint64
			if v95 != 0 {
				v101 = v42
			} else {
				v101 = v41
			}
			var v102 uint64
			if v95 != 0 {
				v102 = v43
			} else {
				v102 = v42
			}
			var v103 uint64
			if v95 != 0 {
				v103 = v44
			} else {
				v103 = v43
			}
			var v104 uint64
			if v95 != 0 {
				v104 = v45
			} else {
				v104 = v44
			}
			var v105 uint64
			if v95 != 0 {
				v105 = v46
			} else {
				v105 = v45
			}
			var v106 uint64
			if v95 != 0 {
				v106 = v47
			} else {
				v106 = v46
			}
			var v107 uint64
			if v95 != 0 {
				v107 = v48
			} else {
				v107 = v47
			}
			var v108 uint64
			if v95 != 0 {
				v108 = v49
			} else {
				v108 = v48
			}
			var v109 uint64
			if v95 != 0 {
				v109 = v50
			} else {
				v109 = v49
			}
			var v110 uint64
			if v95 != 0 {
				v110 = v51
			} else {
				v110 = v50
			}
			var v111 uint64
			if v95 != 0 {
				v111 = v93
			} else {
				v111 = v51
			}
			var v175 uint64
			if v95 != 0 {
				v175 = v173
			} else {
				v175 = v112
			}
			var v176 uint64
			if v24 != 0 {
				v176 = v113
			} else {
				v176 = v175
			}
			var v178 uint64
			if v12 != 0 {
				v178 = v177
			} else {
				v178 = v113
			}
			var v181 uint64
			if v3 == 0x4 {
				v181 = 1
			}
			var v182 uint64
			if v95 != 0 {
				v182 = v112
			} else {
				v182 = v114
			}
			var v183 uint64
			if v24 != 0 {
				v183 = v115
			} else {
				v183 = v182
			}
			var v185 uint64
			if v12 != 0 {
				v185 = v184
			} else {
				v185 = v115
			}
			var v187 uint64
			if v95 != 0 {
				v187 = v114
			} else {
				v187 = v116
			}
			var v188 uint64
			if v24 != 0 {
				v188 = v117
			} else {
				v188 = v187
			}
			var v190 uint64
			if v12 != 0 {
				v190 = v189
			} else {
				v190 = v117
			}
			var v192 uint64
			if v95 != 0 {
				v192 = v116
			} else {
				v192 = v118
			}
			var v193 uint64
			if v24 != 0 {
				v193 = v119
			} else {
				v193 = v192
			}
			var v195 uint64
			if v12 != 0 {
				v195 = v194
			} else {
				v195 = v119
			}
			var v197 uint64
			if v95 != 0 {
				v197 = v174
			} else {
				v197 = v120
			}
			var v198 uint64
			if v24 != 0 {
				v198 = v121
			} else {
				v198 = v197
			}
			var v200 uint64
			if v12 != 0 {
				v200 = v199
			} else {
				v200 = v121
			}
			var v202 uint64
			if v95 != 0 {
				v202 = v120
			} else {
				v202 = v122
			}
			var v203 uint64
			if v24 != 0 {
				v203 = v123
			} else {
				v203 = v202
			}
			var v205 uint64
			if v12 != 0 {
				v205 = v204
			} else {
				v205 = v123
			}
			var v207 uint64
			if v95 != 0 {
				v207 = v122
			} else {
				v207 = v124
			}
			var v208 uint64
			if v24 != 0 {
				v208 = v125
			} else {
				v208 = v207
			}
			var v210 uint64
			if v12 != 0 {
				v210 = v209
			} else {
				v210 = v125
			}
			var v212 uint64
			if v95 != 0 {
				v212 = v124
			} else {
				v212 = v126
			}
			var v213 uint64
			if v24 != 0 {
				v213 = v127
			} else {
				v213 = v212
			}
			var v215 uint64
			if v12 != 0 {
				v215 = v214
			} else {
				v215 = v127
			}
			var v218 uint64
			if v13 != 0 {
				v218 = v217
			} else {
				v218 = v4
			}
			var v219 uint64
			if v10 != 0 {
				v219 = v7
			} else {
				v219 = v218
			}
			var v222 uint64
			if v181 != 0 {
				v222 = 0x5
			} else {
				v222 = v3
			}
			var v224 uint64
			if v12 != 0 {
				v224 = v223
			} else {
				v224 = v222
			}
			var v225 uint64
			if v220 != 0 {
				v225 = 0x3
			} else {
				v225 = v3
			}
			var v226 uint64
			if v95 != 0 {
				v226 = v225
			} else {
				v226 = v224
			}
			var v227 uint64
			if v25 != 0 {
				v227 = 0x2
			} else {
				v227 = v3
			}
			var v228 uint64
			if v24 != 0 {
				v228 = v227
			} else {
				v228 = v226
			}
			var v229 uint64
			if v10 != 0 {
				v229 = 0x1
			} else {
				v229 = v228
			}
			var v230 uint64
			if v3 == 0x5 {
				v230 = 1
			}
			var v231 uint64
			if v229 == 0x1 {
				v231 = 1
			}
			v232 := v10 & v231
			var v236 uint64
			if v232 != 0 {
				v236 = v235
			} else {
				v236 = v234
			}
			var v237 uint64
			if v229 == 0x2 {
				v237 = 1
			}
			v238 := v24 & v237
			var v241 uint64
			if v238 != 0 {
				v241 = v240
			} else {
				v241 = v239
			}
			var v242 uint64
			if v229 == 0x3 {
				v242 = 1
			}
			v243 := v95 & v242
			var v246 uint64
			if v243 != 0 {
				v246 = v245
			} else {
				v246 = v244
			}
			v247 := v12 & v231
			var v250 uint64
			if v247 != 0 {
				v250 = v249
			} else {
				v250 = v248
			}
			var v251 uint64
			if v229 == 0x4 {
				v251 = 1
			}
			v252 := v12 & v251
			var v255 uint64
			if v252 != 0 {
				v255 = v254
			} else {
				v255 = v253
			}
			var v256 uint64
			if v229 == 0x5 {
				v256 = 1
			}
			v257 := v181 & v256
			var v260 uint64
			if v257 != 0 {
				v260 = v259
			} else {
				v260 = v258
			}
			var v263 uint64
			if v10 != 0 {
				v263 = v262
			} else {
				v263 = v261
			}
			var v266 uint64
			if v10 != 0 {
				v266 = v265
			} else {
				v266 = v264
			}
			var v269 uint64
			if v10 != 0 {
				v269 = v268
			} else {
				v269 = v267
			}
			var v272 uint64
			if v14 != 0 {
				v272 = v271
			} else {
				v272 = v270
			}
			var v275 uint64
			if v14 != 0 {
				v275 = v274
			} else {
				v275 = v273
			}
			var v278 uint64
			if v14 != 0 {
				v278 = v277
			} else {
				v278 = v276
			}
			var v281 uint64
			if v26 != 0 {
				v281 = v280
			} else {
				v281 = v279
			}
			var v284 uint64
			if v26 != 0 {
				v284 = v283
			} else {
				v284 = v282
			}
			var v287 uint64
			if v26 != 0 {
				v287 = v286
			} else {
				v287 = v285
			}
			s230 = v230
			s229 = v229
			s219 = v219
			s22 = v22
			s34 = v34
			s96 = v96
			s97 = v97
			s98 = v98
			s99 = v99
			s100 = v100
			s101 = v101
			s102 = v102
			s103 = v103
			s104 = v104
			s105 = v105
			s106 = v106
			s107 = v107
			s108 = v108
			s109 = v109
			s110 = v110
			s111 = v111
			s176 = v176
			s178 = v178
			s183 = v183
			s185 = v185
			s188 = v188
			s190 = v190
			s193 = v193
			s195 = v195
			s198 = v198
			s200 = v200
			s203 = v203
			s205 = v205
			s208 = v208
			s210 = v210
			s213 = v213
			s215 = v215
			s236 = v236
			s241 = v241
			s246 = v246
			s250 = v250
			s255 = v255
			s260 = v260
			s263 = v263
			s266 = v266
			s269 = v269
			s272 = v272
			s275 = v275
			s278 = v278
			s281 = v281
			s284 = v284
			s287 = v287
			s181 = v181
		}
		if s230 != 0 {
			break
		}
		if s181 != 0 {
			if addr := uint64(0x0); addr < uint64(len(m1)) {
				m1[addr] = v113
			}
		}
		if s181 != 0 {
			if addr := uint64(0x1); addr < uint64(len(m1)) {
				m1[addr] = v115
			}
		}
		if s181 != 0 {
			if addr := uint64(0x2); addr < uint64(len(m1)) {
				m1[addr] = v117
			}
		}
		if s181 != 0 {
			if addr := uint64(0x3); addr < uint64(len(m1)) {
				m1[addr] = v119
			}
		}
		if s181 != 0 {
			if addr := uint64(0x4); addr < uint64(len(m1)) {
				m1[addr] = v121
			}
		}
		if s181 != 0 {
			if addr := uint64(0x5); addr < uint64(len(m1)) {
				m1[addr] = v123
			}
		}
		if s181 != 0 {
			if addr := uint64(0x6); addr < uint64(len(m1)) {
				m1[addr] = v125
			}
		}
		if s181 != 0 {
			if addr := uint64(0x7); addr < uint64(len(m1)) {
				m1[addr] = v127
			}
		}
		v3 = s229
		v4 = s219
		v16 = s22
		v28 = s34
		v36 = s96
		v37 = s97
		v38 = s98
		v39 = s99
		v40 = s100
		v41 = s101
		v42 = s102
		v43 = s103
		v44 = s104
		v45 = s105
		v46 = s106
		v47 = s107
		v48 = s108
		v49 = s109
		v50 = s110
		v51 = s111
		v112 = s176
		v113 = s178
		v114 = s183
		v115 = s185
		v116 = s188
		v117 = s190
		v118 = s193
		v119 = s195
		v120 = s198
		v121 = s200
		v122 = s203
		v123 = s205
		v124 = s208
		v125 = s210
		v126 = s213
		v127 = s215
		v234 = s236
		v239 = s241
		v244 = s246
		v248 = s250
		v253 = s255
		v258 = s260
		v261 = s263
		v264 = s266
		v267 = s269
		v270 = s272
		v273 = s275
		v276 = s278
		v279 = s281
		v282 = s284
		v285 = s287
	}
	vals[3] = v3
	vals[4] = v4
	vals[16] = v16
	vals[28] = v28
	vals[36] = v36
	vals[37] = v37
	vals[38] = v38
	vals[39] = v39
	vals[40] = v40
	vals[41] = v41
	vals[42] = v42
	vals[43] = v43
	vals[44] = v44
	vals[45] = v45
	vals[46] = v46
	vals[47] = v47
	vals[48] = v48
	vals[49] = v49
	vals[50] = v50
	vals[51] = v51
	vals[112] = v112
	vals[113] = v113
	vals[114] = v114
	vals[115] = v115
	vals[116] = v116
	vals[117] = v117
	vals[118] = v118
	vals[119] = v119
	vals[120] = v120
	vals[121] = v121
	vals[122] = v122
	vals[123] = v123
	vals[124] = v124
	vals[125] = v125
	vals[126] = v126
	vals[127] = v127
	vals[234] = v234
	vals[239] = v239
	vals[244] = v244
	vals[248] = v248
	vals[253] = v253
	vals[258] = v258
	vals[261] = v261
	vals[264] = v264
	vals[267] = v267
	vals[270] = v270
	vals[273] = v273
	vals[276] = v276
	vals[279] = v279
	vals[282] = v282
	vals[285] = v285
	return n
}

func run_sha_pruned(vals []uint64, mems [][]uint64, max uint64) uint64 {
	_ = vals[287]
	m0 := mems[0]
	m1 := mems[1]
	m2 := mems[2]
	v0 := vals[0]
	v5 := vals[5]
	v11 := vals[11]
	v17 := vals[17]
	v51 := vals[51]
	v52 := vals[52]
	v54 := vals[54]
	v56 := vals[56]
	v58 := vals[58]
	v60 := vals[60]
	v62 := vals[62]
	v64 := vals[64]
	v66 := vals[66]
	v68 := vals[68]
	v70 := vals[70]
	v72 := vals[72]
	v74 := vals[74]
	v76 := vals[76]
	v78 := vals[78]
	v80 := vals[80]
	v127 := vals[127]
	v128 := vals[128]
	v129 := vals[129]
	v130 := vals[130]
	v147 := vals[147]
	v150 := vals[150]
	v172 := vals[172]
	v174 := vals[174]
	v185 := vals[185]
	v190 := vals[190]
	v195 := vals[195]
	v196 := vals[196]
	v201 := vals[201]
	v207 := vals[207]
	v212 := vals[212]
	v217 := vals[217]
	v222 := vals[222]
	v228 := vals[228]
	v233 := vals[233]
	v238 := vals[238]
	v242 := vals[242]
	v247 := vals[247]
	v252 := vals[252]
	v255 := vals[255]
	v258 := vals[258]
	v261 := vals[261]
	v264 := vals[264]
	v267 := vals[267]
	v270 := vals[270]
	v273 := vals[273]
	v276 := vals[276]
	var n uint64
	for ; n < max; n++ {
		var v7 uint64
		if v5 == 0x0 {
			v7 = 1
		}
		var v13 uint64
		if v11 == 0x0 {
			v13 = 1
		}
		var v19 uint64
		if v17 != 0x0 {
			v19 = 1
		}
		var v21 uint64
		if v19 != 0 {
			v21 = 0x1
		} else {
			v21 = 0x4
		}
		var v30 uint64
		if addr := uint64(0x0); addr < uint64(len(m0)) {
			v30 = m0[addr] & 0xffff
		}
		v32 := (v30 - 0x1) & 0xffff
		v34 := (v17 - 0x1) & 0xffff
		var v39 uint64
		if v5 != 0x0 {
			v39 = 1
		}
		v41 := (v5 - 0x1) & 0x1f
		var v42 uint64
		if v39 != 0 {
			v42 = v41
		} else {
			v42 = v5
		}
		var v46 uint64
		if v11 != 0x0 {
			v46 = 1
		}
		v48 := (v11 - 0x1) & 0x7f
		var v49 uint64
		if v46 != 0 {
			v49 = v48
		} else {
			v49 = v11
		}
		v82 := (0x3f - v11) & 0x7f
		var v84 uint64
		if v82 < 0x10 {
			v84 = 1
		}
		v85 := (v32 - v17) & 0xffff
		v87 := (v85 << 4) & 0xffff
		v88 := (v82 | 0x0)
		v89 := (v87 + v88) & 0xffff
		v90 := (v89 + 0x1) & 0xffff
		v92 := v90 & 0x3ff
		var v93 uint64
		if addr := uint64(v92); addr < uint64(len(m0)) {
			v93 = m0[addr] & 0xffffffff
		}
		v95 := (v78 >> 17)
		v97 := (v78 << 15) & 0xffffffff
		v98 := (v95 | v97)
		v100 := (v78 >> 19)
		v102 := (v78 << 13) & 0xffffffff
		v103 := (v100 | v102)
		v104 := (v98 ^ v103)
		v106 := (v78 >> 10)
		v107 := (v104 ^ v106)
		v108 := (v107 + v68) & 0xffffffff
		v110 := (v52 >> 7)
		v112 := (v52 << 25) & 0xffffffff
		v113 := (v110 | v112)
		v115 := (v52 >> 18)
		v117 := (v52 << 14) & 0xffffffff
		v118 := (v115 | v117)
		v119 := (v113 ^ v118)
		v121 := (v52 >> 3)
		v122 := (v119 ^ v121)
		v123 := (v108 + v122) & 0xffffffff
		v124 := (v123 + v51) & 0xffffffff
		var v125 uint64
		if v84 != 0 {
			v125 = v93
		} else {
			v125 = v124
		}
		v132 := (v130 >> 6)
		v134 := (v130 << 26) & 0xffffffff
		v135 := (v132 | v134)
		v137 := (v130 >> 11)
		v139 := (v130 << 21) & 0xffffffff
		v140 := (v137 | v139)
		v141 := (v135 ^ v140)
		v142 := (v130 >> 25)
		v143 := (v130 << 7) & 0xffffffff
		v144 := (v142 | v143)
		v145 := (v141 ^ v144)
		v146 := (v129 + v145) & 0xffffffff
		v148 := v130 & v147
		v149 := ^v130 & 0xffffffff
		v151 := v149 & v150
		v152 := (v148 ^ v151)
		v153 := (v146 + v152) & 0xffffffff
		v154 := v82 & 0x3f
		var v155 uint64
		if addr := uint64(v154); addr < uint64(len(m1)) {
			v155 = m1[addr] & 0xffffffff
		}
		v156 := (v153 + v155) & 0xffffffff
		v157 := (v156 + v125) & 0xffffffff
		v159 := (v127 >> 2)
		v161 := (v127 << 30) & 0xffffffff
		v162 := (v159 | v161)
		v163 := (v127 >> 13)
		v164 := (v127 << 19) & 0xffffffff
		v165 := (v163 | v164)
		v166 := (v162 ^ v165)
		v168 := (v127 >> 22)
		v169 := (v127 << 10) & 0xffffffff
		v170 := (v168 | v169)
		v171 := (v166 ^ v170)
		v173 := v127 & v172
		v175 := v127 & v174
		v176 := (v173 ^ v175)
		v177 := v172 & v174
		v178 := (v176 ^ v177)
		v179 := (v171 + v178) & 0xffffffff
		v180 := (v157 + v179) & 0xffffffff
		v183 := (v128 + v127) & 0xffffffff
		v188 := (v185 + v172) & 0xffffffff
		v193 := (v190 + v174) & 0xffffffff
		v199 := (v196 + v195) & 0xffffffff
		v202 := (v195 + v157) & 0xffffffff
		v205 := (v201 + v130) & 0xffffffff
		v210 := (v207 + v147) & 0xffffffff
		v215 := (v212 + v150) & 0xffffffff
		v220 := (v217 + v129) & 0xffffffff
		v226 := (v222 + 0x1) & 0xffffff
		v231 := (v228 + 0x1) & 0xffffff
		v236 := (v233 + 0x1) & 0xffffff
		v240 := (v238 + 0x1) & 0xffffff
		v245 := (v242 + 0x1) & 0xffffff
		v250 := (v247 + 0x1) & 0xffffff
		v253 := (v252 + 0x1) & 0xffffff
		v256 := (v255 + v32) & 0xffffff
		v259 := (v258 + v17) & 0xffffff
		v262 := (v261 + 0x1) & 0xffffff
		v265 := (v264 + 0xf) & 0xffffff
		v268 := (v267 + v5) & 0xffffff
		v271 := (v270 + 0x1) & 0xffffff
		v274 := (v273 + 0x3f) & 0xffffff
		v277 := (v276 + v11) & 0xffffff
		var s22, s28, s36, s43, s50, s53, s55, s57, s59, s61, s63, s65, s67, s69, s71, s73, s75, s77, s79, s81, s126, s182, s184, s187, s189, s192, s194, s198, s200, s204, s206, s209, s211, s214, s216, s219, s221, s227, s232, s237, s241, s246, s251, s254, s257, s260, s263, s266, s269, s272, s275, s278, s287 uint64
		switch v0 {
		case 0x0:
			v33 := 0x0 & v19
			v36 := v32
			v37 := (0x1 | v33)
			var v43 uint64
			if v37 != 0 {
				v43 = 0xf
			} else {
				v43 = v42
			}
			v44 := 0x0 & v7
			var v50 uint64
			if v44 != 0 {
				v50 = 0x3f
			} else {
				v50 = v49
			}
			v53 := v51
			v55 := v52
			v57 := v54
			v59 := v56
			v61 := v58
			v63 := v60
			v65 := v62
			v67 := v64
			v69 := v66
			v71 := v68
			v73 := v70
			v75 := v72
			v77 := v74
			v79 := v76
			v81 := v78
			v126 := v80
			v181 := v127
			v182 := v181
			v184 := v128
			v186 := v172
			v187 := v186
			v189 := v185
			v191 := v174
			v192 := v191
			v194 := v190
			v197 := v195
			v198 := v197
			v200 := v196
			v203 := v130
			v204 := v203
			v206 := v201
			v208 := v147
			v209 := v208
			v211 := v207
			v213 := v150
			v214 := v213
			v216 := v212
			v218 := v129
			v219 := v218
			v221 := v217
			v227 := v226
			v232 := v228
			v237 := v233
			v241 := v238
			v246 := v242
			v251 := v247
			v254 := v253
			v257 := v256
			v260 := v259
			var v263 uint64
			if v37 != 0 {
				v263 = v262
			} else {
				v263 = v261
			}
			var v266 uint64
			if v37 != 0 {
				v266 = v265
			} else {
				v266 = v264
			}
			var v269 uint64
			if v37 != 0 {
				v269 = v268
			} else {
				v269 = v267
			}
			var v272 uint64
			if v44 != 0 {
				v272 = v271
			} else {
				v272 = v270
			}
			var v275 uint64
			if v44 != 0 {
				v275 = v274
			} else {
				v275 = v273
			}
			var v278 uint64
			if v44 != 0 {
				v278 = v277
			} else {
				v278 = v276
			}
			s287 = 0x0
			s28 = 0x1
			s36 = v36
			s43 = v43
			s50 = v50
			s53 = v53
			s55 = v55
			s57 = v57
			s59 = v59
			s61 = v61
			s63 = v63
			s65 = v65
			s67 = v67
			s69 = v69
			s71 = v71
			s73 = v73
			s75 = v75
			s77 = v77
			s79 = v79
			s81 = v81
			s126 = v126
			s182 = v182
			s184 = v184
			s187 = v187
			s189 = v189
			s192 = v192
			s194 = v194
			s198 = v198
			s200 = v200
			s204 = v204
			s206 = v206
			s209 = v209
			s211 = v211
			s214 = v214
			s216 = v216
			s219 = v219
			s221 = v221
			s227 = v227
			s232 = v232
			s237 = v237
			s241 = v241
			s246 = v246
			s251 = v251
			s254 = v254
			s257 = v257
			s260 = v260
			s263 = v263
			s266 = v266
			s269 = v269
			s272 = v272
			s275 = v275
			s278 = v278
			s22 = 0x0
		case 0x1:
			var v9 uint64
			if v7 != 0 {
				v9 = 0x2
			} else {
				v9 = 0x1
			}
			v27 := v9
			v28 := v27
			v33 := 0x0 & v19
			var v35 uint64
			if v33 != 0 {
				v35 = v34
			} else {
				v35 = v17
			}
			v36 := v35
			v37 := (0x0 | v33)
			var v43 uint64
			if v37 != 0 {
				v43 = 0xf
			} else {
				v43 = v42
			}
			v44 := 0x1 & v7
			var v50 uint64
			if v44 != 0 {
				v50 = 0x3f
			} else {
				v50 = v49
			}
			v53 := v51
			v55 := v52
			v57 := v54
			v59 := v56
			v61 := v58
			v63 := v60
			v65 := v62
			v67 := v64
			v69 := v66
			v71 := v68
			v73 := v70
			v75 := v72
			v77 := v74
			v79 := v76
			v81 := v78
			v126 := v80
			v182 := v128
			v184 := v128
			v187 := v185
			v189 := v185
			v192 := v190
			v194 := v190
			v198 := v196
			v200 := v196
			v204 := v201
			v206 := v201
			v209 := v207
			v211 := v207
			v214 := v212
			v216 := v212
			v219 := v217
			v221 := v217
			var v223 uint64
			if v28 == 0x1 {
				v223 = 1
			}
			v224 := 0x0 & v223
			var v227 uint64
			if v224 != 0 {
				v227 = v226
			} else {
				v227 = v222
			}
			var v229 uint64
			if v28 == 0x2 {
				v229 = 1
			}
			v230 := 0x1 & v229
			var v232 uint64
			if v230 != 0 {
				v232 = v231
			} else {
				v232 = v228
			}
			var v234 uint64
			if v28 == 0x3 {
				v234 = 1
			}
			v235 := 0x0 & v234
			var v237 uint64
			if v235 != 0 {
				v237 = v236
			} else {
				v237 = v233
			}
			v239 := 0x0 & v223
			var v241 uint64
			if v239 != 0 {
				v241 = v240
			} else {
				v241 = v238
			}
			var v243 uint64
			if v28 == 0x4 {
				v243 = 1
			}
			v244 := 0x0 & v243
			var v246 uint64
			if v244 != 0 {
				v246 = v245
			} else {
				v246 = v242
			}
			var v248 uint64
			if v28 == 0x5 {
				v248 = 1
			}
			v249 := 0x0 & v248
			var v251 uint64
			if v249 != 0 {
				v251 = v250
			} else {
				v251 = v247
			}
			v254 := v252
			v257 := v255
			v260 := v258
			var v263 uint64
			if v37 != 0 {
				v263 = v262
			} else {
				v263 = v261
			}
			var v266 uint64
			if v37 != 0 {
				v266 = v265
			} else {
				v266 = v264
			}
			var v269 uint64
			if v37 != 0 {
				v269 = v268
			} else {
				v269 = v267
			}
			var v272 uint64
			if v44 != 0 {
				v272 = v271
			} else {
				v272 = v270
			}
			var v275 uint64
			if v44 != 0 {
				v275 = v274
			} else {
				v275 = v273
			}
			var v278 uint64
			if v44 != 0 {
				v278 = v277
			} else {
				v278 = v276
			}
			s287 = 0x0
			s28 = v28
			s36 = v36
			s43 = v43
			s50 = v50
			s53 = v53
			s55 = v55
			s57 = v57
			s59 = v59
			s61 = v61
			s63 = v63
			s65 = v65
			s67 = v67
			s69 = v69
			s71 = v71
			s73 = v73
			s75 = v75
			s77 = v77
			s79 = v79
			s81 = v81
			s126 = v126
			s182 = v182
			s184 = v184
			s187 = v187
			s189 = v189
			s192 = v192
			s194 = v194
			s198 = v198
			s200 = v200
			s204 = v204
			s206 = v206
			s209 = v209
			s211 = v211
			s214 = v214
			s216 = v216
			s219 = v219
			s221 = v221
			s227 = v227
			s232 = v232
			s237 = v237
			s241 = v241
			s246 = v246
			s251 = v251
			s254 = v254
			s257 = v257
			s260 = v260
			s263 = v263
			s266 = v266
			s269 = v269
			s272 = v272
			s275 = v275
			s278 = v278
			s22 = 0x0
		case 0x2:
			var v15 uint64
			if v13 != 0 {
				v15 = 0x3
			} else {
				v15 = 0x2
			}
			v26 := v15
			v27 := v26
			v28 := v27
			v33 := 0x0 & v19
			var v35 uint64
			if v33 != 0 {
				v35 = v34
			} else {
				v35 = v17
			}
			v36 := v35
			v37 := (0x0 | v33)
			var v43 uint64
			if v37 != 0 {
				v43 = 0xf
			} else {
				v43 = v42
			}
			v44 := 0x0 & v7
			var v50 uint64
			if v44 != 0 {
				v50 = 0x3f
			} else {
				v50 = v49
			}
			v53 := v52
			v55 := v54
			v57 := v56
			v59 := v58
			v61 := v60
			v63 := v62
			v65 := v64
			v67 := v66
			v69 := v68
			v71 := v70
			v73 := v72
			v75 := v74
			v77 := v76
			v79 := v78
			v81 := v80
			v126 := v125
			v181 := v180
			v182 := v181
			v184 := v128
			v186 := v127
			v187 := v186
			v189 := v185
			v191 := v172
			v192 := v191
			v194 := v190
			v197 := v174
			v198 := v197
			v200 := v196
			v203 := v202
			v204 := v203
			v206 := v201
			v208 := v130
			v209 := v208
			v211 := v207
			v213 := v147
			v214 := v213
			v216 := v212
			v218 := v150
			v219 := v218
			v221 := v217
			var v223 uint64
			if v28 == 0x1 {
				v223 = 1
			}
			v224 := 0x0 & v223
			var v227 uint64
			if v224 != 0 {
				v227 = v226
			} else {
				v227 = v222
			}
			var v229 uint64
			if v28 == 0x2 {
				v229 = 1
			}
			v230 := 0x0 & v229
			var v232 uint64
			if v230 != 0 {
				v232 = v231
			} else {
				v232 = v228
			}
			var v234 uint64
			if v28 == 0x3 {
				v234 = 1
			}
			v235 := 0x1 & v234
			var v237 uint64
			if v235 != 0 {
				v237 = v236
			} else {
				v237 = v233
			}
			v239 := 0x0 & v223
			var v241 uint64
			if v239 != 0 {
				v241 = v240
			} else {
				v241 = v238
			}
			var v243 uint64
			if v28 == 0x4 {
				v243 = 1
			}
			v244 := 0x0 & v243
			var v246 uint64
			if v244 != 0 {
				v246 = v245
			} else {
				v246 = v242
			}
			var v248 uint64
			if v28 == 0x5 {
				v248 = 1
			}
			v249 := 0x0 & v248
			var v251 uint64
			if v249 != 0 {
				v251 = v250
			} else {
				v251 = v247
			}
			v254 := v252
			v257 := v255
			v260 := v258
			var v263 uint64
			if v37 != 0 {
				v263 = v262
			} else {
				v263 = v261
			}
			var v266 uint64
			if v37 != 0 {
				v266 = v265
			} else {
				v266 = v264
			}
			var v269 uint64
			if v37 != 0 {
				v269 = v268
			} else {
				v269 = v267
			}
			var v272 uint64
			if v44 != 0 {
				v272 = v271
			} else {
				v272 = v270
			}
			var v275 uint64
			if v44 != 0 {
				v275 = v274
			} else {
				v275 = v273
			}
			var v278 uint64
			if v44 != 0 {
				v278 = v277
			} else {
				v278 = v276
			}
			s287 = 0x0
			s28 = v28
			s36 = v36
			s43 = v43
			s50 = v50
			s53 = v53
			s55 = v55
			s57 = v57
			s59 = v59
			s61 = v61
			s63 = v63
			s65 = v65
			s67 = v67
			s69 = v69
			s71 = v71
			s73 = v73
			s75 = v75
			s77 = v77
			s79 = v79
			s81 = v81
			s126 = v126
			s182 = v182
			s184 = v184
			s187 = v187
			s189 = v189
			s192 = v192
			s194 = v194
			s198 = v198
			s200 = v200
			s204 = v204
			s206 = v206
			s209 = v209
			s211 = v211
			s214 = v214
			s216 = v216
			s219 = v219
			s221 = v221
			s227 = v227
			s232 = v232
			s237 = v237
			s241 = v241
			s246 = v246
			s251 = v251
			s254 = v254
			s257 = v257
			s260 = v260
			s263 = v263
			s266 = v266
			s269 = v269
			s272 = v272
			s275 = v275
			s278 = v278
			s22 = 0x0
		case 0x3:
			v25 := v21
			v26 := v25
			v27 := v26
			v28 := v27
			v33 := 0x1 & v19
			var v35 uint64
			if v33 != 0 {
				v35 = v34
			} else {
				v35 = v17
			}
			v36 := v35
			v37 := (0x0 | v33)
			var v43 uint64
			if v37 != 0 {
				v43 = 0xf
			} else {
				v43 = v42
			}
			v44 := 0x0 & v7
			var v50 uint64
			if v44 != 0 {
				v50 = 0x3f
			} else {
				v50 = v49
			}
			v53 := v51
			v55 := v52
			v57 := v54
			v59 := v56
			v61 := v58
			v63 := v60
			v65 := v62
			v67 := v64
			v69 := v66
			v71 := v68
			v73 := v70
			v75 := v72
			v77 := v74
			v79 := v76
			v81 := v78
			v126 := v80
			v181 := v127
			v182 := v181
			v184 := v183
			v186 := v172
			v187 := v186
			v189 := v188
			v191 := v174
			v192 := v191
			v194 := v193
			v197 := v195
			v198 := v197
			v200 := v199
			v203 := v130
			v204 := v203
			v206 := v205
			v208 := v147
			v209 := v208
			v211 := v210
			v213 := v150
			v214 := v213
			v216 := v215
			v218 := v129
			v219 := v218
			v221 := v220
			var v223 uint64
			if v28 == 0x1 {
				v223 = 1
			}
			v224 := 0x0 & v223
			var v227 uint64
			if v224 != 0 {
				v227 = v226
			} else {
				v227 = v222
			}
			var v229 uint64
			if v28 == 0x2 {
				v229 = 1
			}
			v230 := 0x0 & v229
			var v232 uint64
			if v230 != 0 {
				v232 = v231
			} else {
				v232 = v228
			}
			var v234 uint64
			if v28 == 0x3 {
				v234 = 1
			}
			v235 := 0x0 & v234
			var v237 uint64
			if v235 != 0 {
				v237 = v236
			} else {
				v237 = v233
			}
			v239 := 0x1 & v223
			var v241 uint64
			if v239 != 0 {
				v241 = v240
			} else {
				v241 = v238
			}
			var v243 uint64
			if v28 == 0x4 {
				v243 = 1
			}
			v244 := 0x1 & v243
			var v246 uint64
			if v244 != 0 {
				v246 = v245
			} else {
				v246 = v242
			}
			var v248 uint64
			if v28 == 0x5 {
				v248 = 1
			}
			v249 := 0x0 & v248
			var v251 uint64
			if v249 != 0 {
				v251 = v250
			} else {
				v251 = v247
			}
			v254 := v252
			v257 := v255
			v260 := v258
			var v263 uint64
			if v37 != 0 {
				v263 = v262
			} else {
				v263 = v261
			}
			var v266 uint64
			if v37 != 0 {
				v266 = v265
			} else {
				v266 = v264
			}
			var v269 uint64
			if v37 != 0 {
				v269 = v268
			} else {
				v269 = v267
			}
			var v272 uint64
			if v44 != 0 {
				v272 = v271
			} else {
				v272 = v270
			}
			var v275 uint64
			if v44 != 0 {
				v275 = v274
			} else {
				v275 = v273
			}
			var v278 uint64
			if v44 != 0 {
				v278 = v277
			} else {
				v278 = v276
			}
			s287 = 0x0
			s28 = v28
			s36 = v36
			s43 = v43
			s50 = v50
			s53 = v53
			s55 = v55
			s57 = v57
			s59 = v59
			s61 = v61
			s63 = v63
			s65 = v65
			s67 = v67
			s69 = v69
			s71 = v71
			s73 = v73
			s75 = v75
			s77 = v77
			s79 = v79
			s81 = v81
			s126 = v126
			s182 = v182
			s184 = v184
			s187 = v187
			s189 = v189
			s192 = v192
			s194 = v194
			s198 = v198
			s200 = v200
			s204 = v204
			s206 = v206
			s209 = v209
			s211 = v211
			s214 = v214
			s216 = v216
			s219 = v219
			s221 = v221
			s227 = v227
			s232 = v232
			s237 = v237
			s241 = v241
			s246 = v246
			s251 = v251
			s254 = v254
			s257 = v257
			s260 = v260
			s263 = v263
			s266 = v266
			s269 = v269
			s272 = v272
			s275 = v275
			s278 = v278
			s22 = 0x0
		case 0x4:
			v33 := 0x0 & v19
			var v35 uint64
			if v33 != 0 {
				v35 = v34
			} else {
				v35 = v17
			}
			v36 := v35
			v37 := (0x0 | v33)
			var v43 uint64
			if v37 != 0 {
				v43 = 0xf
			} else {
				v43 = v42
			}
			v44 := 0x0 & v7
			var v50 uint64
			if v44 != 0 {
				v50 = 0x3f
			} else {
				v50 = v49
			}
			v53 := v51
			v55 := v52
			v57 := v54
			v59 := v56
			v61 := v58
			v63 := v60
			v65 := v62
			v67 := v64
			v69 := v66
			v71 := v68
			v73 := v70
			v75 := v72
			v77 := v74
			v79 := v76
			v81 := v78
			v126 := v80
			v181 := v127
			v182 := v181
			v184 := v128
			v186 := v172
			v187 := v186
			v189 := v185
			v191 := v174
			v192 := v191
			v194 := v190
			v197 := v195
			v198 := v197
			v200 := v196
			v203 := v130
			v204 := v203
			v206 := v201
			v208 := v147
			v209 := v208
			v211 := v207
			v213 := v150
			v214 := v213
			v216 := v212
			v218 := v129
			v219 := v218
			v221 := v217
			v227 := v222
			v232 := v228
			v237 := v233
			v241 := v238
			v246 := v242
			v251 := v250
			v254 := v252
			v257 := v255
			v260 := v258
			var v263 uint64
			if v37 != 0 {
				v263 = v262
			} else {
				v263 = v261
			}
			var v266 uint64
			if v37 != 0 {
				v266 = v265
			} else {
				v266 = v264
			}
			var v269 uint64
			if v37 != 0 {
				v269 = v268
			} else {
				v269 = v267
			}
			var v272 uint64
			if v44 != 0 {
				v272 = v271
			} else {
				v272 = v270
			}
			var v275 uint64
			if v44 != 0 {
				v275 = v274
			} else {
				v275 = v273
			}
			var v278 uint64
			if v44 != 0 {
				v278 = v277
			} else {
				v278 = v276
			}
			s287 = 0x0
			s28 = 0x5
			s36 = v36
			s43 = v43
			s50 = v50
			s53 = v53
			s55 = v55
			s57 = v57
			s59 = v59
			s61 = v61
			s63 = v63
			s65 = v65
			s67 = v67
			s69 = v69
			s71 = v71
			s73 = v73
			s75 = v75
			s77 = v77
			s79 = v79
			s81 = v81
			s126 = v126
			s182 = v182
			s184 = v184
			s187 = v187
			s189 = v189
			s192 = v192
			s194 = v194
			s198 = v198
			s200 = v200
			s204 = v204
			s206 = v206
			s209 = v209
			s211 = v211
			s214 = v214
			s216 = v216
			s219 = v219
			s221 = v221
			s227 = v227
			s232 = v232
			s237 = v237
			s241 = v241
			s246 = v246
			s251 = v251
			s254 = v254
			s257 = v257
			s260 = v260
			s263 = v263
			s266 = v266
			s269 = v269
			s272 = v272
			s275 = v275
			s278 = v278
			s22 = 0x1
		case 0x5:
			v33 := 0x0 & v19
			var v35 uint64
			if v33 != 0 {
				v35 = v34
			} else {
				v35 = v17
			}
			v36 := v35
			v37 := (0x0 | v33)
			var v43 uint64
			if v37 != 0 {
				v43 = 0xf
			} else {
				v43 = v42
			}
			v44 := 0x0 & v7
			var v50 uint64
			if v44 != 0 {
				v50 = 0x3f
			} else {
				v50 = v49
			}
			v53 := v51
			v55 := v52
			v57 := v54
			v59 := v56
			v61 := v58
			v63 := v60
			v65 := v62
			v67 := v64
			v69 := v66
			v71 := v68
			v73 := v70
			v75 := v72
			v77 := v74
			v79 := v76
			v81 := v78
			v126 := v80
			v181 := v127
			v182 := v181
			v184 := v128
			v186 := v172
			v187 := v186
			v189 := v185
			v191 := v174
			v192 := v191
			v194 := v190
			v197 := v195
			v198 := v197
			v200 := v196
			v203 := v130
			v204 := v203
			v206 := v201
			v208 := v147
			v209 := v208
			v211 := v207
			v213 := v150
			v214 := v213
			v216 := v212
			v218 := v129
			v219 := v218
			v221 := v217
			v227 := v222
			v232 := v228
			v237 := v233
			v241 := v238
			v246 := v242
			v251 := v247
			v254 := v252
			v257 := v255
			v260 := v258
			var v263 uint64
			if v37 != 0 {
				v263 = v262
			} else {
				v263 = v261
			}
			var v266 uint64
			if v37 != 0 {
				v266 = v265
			} else {
				v266 = v264
			}
			var v269 uint64
			if v37 != 0 {
				v269 = v268
			} else {
				v269 = v267
			}
			var v272 uint64
			if v44 != 0 {
				v272 = v271
			} else {
				v272 = v270
			}
			var v275 uint64
			if v44 != 0 {
				v275 = v274
			} else {
				v275 = v273
			}
			var v278 uint64
			if v44 != 0 {
				v278 = v277
			} else {
				v278 = v276
			}
			s287 = 0x1
			s28 = 0x5
			s36 = v36
			s43 = v43
			s50 = v50
			s53 = v53
			s55 = v55
			s57 = v57
			s59 = v59
			s61 = v61
			s63 = v63
			s65 = v65
			s67 = v67
			s69 = v69
			s71 = v71
			s73 = v73
			s75 = v75
			s77 = v77
			s79 = v79
			s81 = v81
			s126 = v126
			s182 = v182
			s184 = v184
			s187 = v187
			s189 = v189
			s192 = v192
			s194 = v194
			s198 = v198
			s200 = v200
			s204 = v204
			s206 = v206
			s209 = v209
			s211 = v211
			s214 = v214
			s216 = v216
			s219 = v219
			s221 = v221
			s227 = v227
			s232 = v232
			s237 = v237
			s241 = v241
			s246 = v246
			s251 = v251
			s254 = v254
			s257 = v257
			s260 = v260
			s263 = v263
			s266 = v266
			s269 = v269
			s272 = v272
			s275 = v275
			s278 = v278
			s22 = 0x0
		default:
			var v2 uint64
			if v0 == 0x0 {
				v2 = 1
			}
			var v4 uint64
			if v0 == 0x1 {
				v4 = 1
			}
			var v9 uint64
			if v7 != 0 {
				v9 = 0x2
			} else {
				v9 = v0
			}
			var v10 uint64
			if v0 == 0x2 {
				v10 = 1
			}
			var v15 uint64
			if v13 != 0 {
				v15 = 0x3
			} else {
				v15 = v0
			}
			var v16 uint64
			if v0 == 0x3 {
				v16 = 1
			}
			var v22 uint64
			if v0 == 0x4 {
				v22 = 1
			}
			var v24 uint64
			if v22 != 0 {
				v24 = 0x5
			} else {
				v24 = v0
			}
			var v25 uint64
			if v16 != 0 {
				v25 = v21
			} else {
				v25 = v24
			}
			var v26 uint64
			if v10 != 0 {
				v26 = v15
			} else {
				v26 = v25
			}
			var v27 uint64
			if v4 != 0 {
				v27 = v9
			} else {
				v27 = v26
			}
			var v28 uint64
			if v2 != 0 {
				v28 = 0x1
			} else {
				v28 = v27
			}
			v33 := v16 & v19
			var v35 uint64
			if v33 != 0 {
				v35 = v34
			} else {
				v35 = v17
			}
			var v36 uint64
			if v2 != 0 {
				v36 = v32
			} else {
				v36 = v35
			}
			v37 := (v2 | v33)
			var v43 uint64
			if v37 != 0 {
				v43 = 0xf
			} else {
				v43 = v42
			}
			v44 := v4 & v7
			var v50 uint64
			if v44 != 0 {
				v50 = 0x3f
			} else {
				v50 = v49
			}
			var v53 uint64
			if v10 != 0 {
				v53 = v52
			} else {
				v53 = v51
			}
			var v55 uint64
			if v10 != 0 {
				v55 = v54
			} else {
				v55 = v52
			}
			var v57 uint64
			if v10 != 0 {
				v57 = v56
			} else {
				v57 = v54
			}
			var v59 uint64
			if v10 != 0 {
				v59 = v58
			} else {
				v59 = v56
			}
			var v61 uint64
			if v10 != 0 {
				v61 = v60
			} else {
				v61 = v58
			}
			var v63 uint64
			if v10 != 0 {
				v63 = v62
			} else {
				v63 = v60
			}
			var v65 uint64
			if v10 != 0 {
				v65 = v64
			} else {
				v65 = v62
			}
			var v67 uint64
			if v10 != 0 {
				v67 = v66
			} else {
				v67 = v64
			}
			var v69 uint64
			if v10 != 0 {
				v69 = v68
			} else {
				v69 = v66
			}
			var v71 uint64
			if v10 != 0 {
				v71 = v70
			} else {
				v71 = v68
			}
			var v73 uint64
			if v10 != 0 {
				v73 = v72
			} else {
				v73 = v70
			}
			var v75 uint64
			if v10 != 0 {
				v75 = v74
			} else {
				v75 = v72
			}
			var v77 uint64
			if v10 != 0 {
				v77 = v76
			} else {
				v77 = v74
			}
			var v79 uint64
			if v10 != 0 {
				v79 = v78
			} else {
				v79 = v76
			}
			var v81 uint64
			if v10 != 0 {
				v81 = v80
			} else {
				v81 = v78
			}
			var v126 uint64
			if v10 != 0 {
				v126 = v125
			} else {
				v126 = v80
			}
			var v181 uint64
			if v10 != 0 {
				v181 = v180
			} else {
				v181 = v127
			}
			var v182 uint64
			if v4 != 0 {
				v182 = v128
			} else {
				v182 = v181
			}
			var v184 uint64
			if v16 != 0 {
				v184 = v183
			} else {
				v184 = v128
			}
			var v186 uint64
			if v10 != 0 {
				v186 = v127
			} else {
				v186 = v172
			}
			var v187 uint64
			if v4 != 0 {
				v187 = v185
			} else {
				v187 = v186
			}
			var v189 uint64
			if v16 != 0 {
				v189 = v188
			} else {
				v189 = v185
			}
			var v191 uint64
			if v10 != 0 {
				v191 = v172
			} else {
				v191 = v174
			}
			var v192 uint64
			if v4 != 0 {
				v192 = v190
			} else {
				v192 = v191
			}
			var v194 uint64
			if v16 != 0 {
				v194 = v193
			} else {
				v194 = v190
			}
			var v197 uint64
			if v10 != 0 {
				v197 = v174
			} else {
				v197 = v195
			}
			var v198 uint64
			if v4 != 0 {
				v198 = v196
			} else {
				v198 = v197
			}
			var v200 uint64
			if v16 != 0 {
				v200 = v199
			} else {
				v200 = v196
			}
			var v203 uint64
			if v10 != 0 {
				v203 = v202
			} else {
				v203 = v130
			}
			var v204 uint64
			if v4 != 0 {
				v204 = v201
			} else {
				v204 = v203
			}
			var v206 uint64
			if v16 != 0 {
				v206 = v205
			} else {
				v206 = v201
			}
			var v208 uint64
			if v10 != 0 {
				v208 = v130
			} else {
				v208 = v147
			}
			var v209 uint64
			if v4 != 0 {
				v209 = v207
			} else {
				v209 = v208
			}
			var v211 uint64
			if v16 != 0 {
				v211 = v210
			} else {
				v211 = v207
			}
			var v213 uint64
			if v10 != 0 {
				v213 = v147
			} else {
				v213 = v150
			}
			var v214 uint64
			if v4 != 0 {
				v214 = v212
			} else {
				v214 = v213
			}
			var v216 uint64
			if v16 != 0 {
				v216 = v215
			} else {
				v216 = v212
			}
			var v218 uint64
			if v10 != 0 {
				v218 = v150
			} else {
				v218 = v129
			}
			var v219 uint64
			if v4 != 0 {
				v219 = v217
			} else {
				v219 = v218
			}
			var v221 uint64
			if v16 != 0 {
				v221 = v220
			} else {
				v221 = v217
			}
			var v223 uint64
			if v28 == 0x1 {
				v223 = 1
			}
			v224 := v2 & v223
			var v227 uint64
			if v224 != 0 {
				v227 = v226
			} else {
				v227 = v222
			}
			var v229 uint64
			if v28 == 0x2 {
				v229 = 1
			}
			v230 := v4 & v229
			var v232 uint64
			if v230 != 0 {
				v232 = v231
			} else {
				v232 = v228
			}
			var v234 uint64
			if v28 == 0x3 {
				v234 = 1
			}
			v235 := v10 & v234
			var v237 uint64
			if v235 != 0 {
				v237 = v236
			} else {
				v237 = v233
			}
			v239 := v16 & v223
			var v241 uint64
			if v239 != 0 {
				v241 = v240
			} else {
				v241 = v238
			}
			var v243 uint64
			if v28 == 0x4 {
				v243 = 1
			}
			v244 := v16 & v243
			var v246 uint64
			if v244 != 0 {
				v246 = v245
			} else {
				v246 = v242
			}
			var v248 uint64
			if v28 == 0x5 {
				v248 = 1
			}
			v249 := v22 & v248
			var v251 uint64
			if v249 != 0 {
				v251 = v250
			} else {
				v251 = v247
			}
			var v254 uint64
			if v2 != 0 {
				v254 = v253
			} else {
				v254 = v252
			}
			var v257 uint64
			if v2 != 0 {
				v257 = v256
			} else {
				v257 = v255
			}
			var v260 uint64
			if v2 != 0 {
				v260 = v259
			} else {
				v260 = v258
			}
			var v263 uint64
			if v37 != 0 {
				v263 = v262
			} else {
				v263 = v261
			}
			var v266 uint64
			if v37 != 0 {
				v266 = v265
			} else {
				v266 = v264
			}
			var v269 uint64
			if v37 != 0 {
				v269 = v268
			} else {
				v269 = v267
			}
			var v272 uint64
			if v44 != 0 {
				v272 = v271
			} else {
				v272 = v270
			}
			var v275 uint64
			if v44 != 0 {
				v275 = v274
			} else {
				v275 = v273
			}
			var v278 uint64
			if v44 != 0 {
				v278 = v277
			} else {
				v278 = v276
			}
			var v287 uint64
			if v0 == 0x5 {
				v287 = 1
			}
			s287 = v287
			s28 = v28
			s36 = v36
			s43 = v43
			s50 = v50
			s53 = v53
			s55 = v55
			s57 = v57
			s59 = v59
			s61 = v61
			s63 = v63
			s65 = v65
			s67 = v67
			s69 = v69
			s71 = v71
			s73 = v73
			s75 = v75
			s77 = v77
			s79 = v79
			s81 = v81
			s126 = v126
			s182 = v182
			s184 = v184
			s187 = v187
			s189 = v189
			s192 = v192
			s194 = v194
			s198 = v198
			s200 = v200
			s204 = v204
			s206 = v206
			s209 = v209
			s211 = v211
			s214 = v214
			s216 = v216
			s219 = v219
			s221 = v221
			s227 = v227
			s232 = v232
			s237 = v237
			s241 = v241
			s246 = v246
			s251 = v251
			s254 = v254
			s257 = v257
			s260 = v260
			s263 = v263
			s266 = v266
			s269 = v269
			s272 = v272
			s275 = v275
			s278 = v278
			s22 = v22
		}
		if s287 != 0 {
			break
		}
		if s22 != 0 {
			if addr := uint64(0x0); addr < uint64(len(m2)) {
				m2[addr] = v128
			}
		}
		if s22 != 0 {
			if addr := uint64(0x1); addr < uint64(len(m2)) {
				m2[addr] = v185
			}
		}
		if s22 != 0 {
			if addr := uint64(0x2); addr < uint64(len(m2)) {
				m2[addr] = v190
			}
		}
		if s22 != 0 {
			if addr := uint64(0x3); addr < uint64(len(m2)) {
				m2[addr] = v196
			}
		}
		if s22 != 0 {
			if addr := uint64(0x4); addr < uint64(len(m2)) {
				m2[addr] = v201
			}
		}
		if s22 != 0 {
			if addr := uint64(0x5); addr < uint64(len(m2)) {
				m2[addr] = v207
			}
		}
		if s22 != 0 {
			if addr := uint64(0x6); addr < uint64(len(m2)) {
				m2[addr] = v212
			}
		}
		if s22 != 0 {
			if addr := uint64(0x7); addr < uint64(len(m2)) {
				m2[addr] = v217
			}
		}
		v0 = s28
		v17 = s36
		v5 = s43
		v11 = s50
		v51 = s53
		v52 = s55
		v54 = s57
		v56 = s59
		v58 = s61
		v60 = s63
		v62 = s65
		v64 = s67
		v66 = s69
		v68 = s71
		v70 = s73
		v72 = s75
		v74 = s77
		v76 = s79
		v78 = s81
		v80 = s126
		v127 = s182
		v128 = s184
		v172 = s187
		v185 = s189
		v174 = s192
		v190 = s194
		v195 = s198
		v196 = s200
		v130 = s204
		v201 = s206
		v147 = s209
		v207 = s211
		v150 = s214
		v212 = s216
		v129 = s219
		v217 = s221
		v222 = s227
		v228 = s232
		v233 = s237
		v238 = s241
		v242 = s246
		v247 = s251
		v252 = s254
		v255 = s257
		v258 = s260
		v261 = s263
		v264 = s266
		v267 = s269
		v270 = s272
		v273 = s275
		v276 = s278
	}
	vals[0] = v0
	vals[17] = v17
	vals[5] = v5
	vals[11] = v11
	vals[51] = v51
	vals[52] = v52
	vals[54] = v54
	vals[56] = v56
	vals[58] = v58
	vals[60] = v60
	vals[62] = v62
	vals[64] = v64
	vals[66] = v66
	vals[68] = v68
	vals[70] = v70
	vals[72] = v72
	vals[74] = v74
	vals[76] = v76
	vals[78] = v78
	vals[80] = v80
	vals[127] = v127
	vals[128] = v128
	vals[172] = v172
	vals[185] = v185
	vals[174] = v174
	vals[190] = v190
	vals[195] = v195
	vals[196] = v196
	vals[130] = v130
	vals[201] = v201
	vals[147] = v147
	vals[207] = v207
	vals[150] = v150
	vals[212] = v212
	vals[129] = v129
	vals[217] = v217
	vals[222] = v222
	vals[228] = v228
	vals[233] = v233
	vals[238] = v238
	vals[242] = v242
	vals[247] = v247
	vals[252] = v252
	vals[255] = v255
	vals[258] = v258
	vals[261] = v261
	vals[264] = v264
	vals[267] = v267
	vals[270] = v270
	vals[273] = v273
	vals[276] = v276
	return n
}

func run_sha_slice_all(vals []uint64, mems [][]uint64, max uint64) uint64 {
	_ = vals[86]
	m0 := mems[0]
	v0 := vals[0]
	v9 := vals[9]
	v29 := vals[29]
	v31 := vals[31]
	v35 := vals[35]
	v39 := vals[39]
	v40 := vals[40]
	v45 := vals[45]
	v48 := vals[48]
	v51 := vals[51]
	v54 := vals[54]
	v57 := vals[57]
	v62 := vals[62]
	v67 := vals[67]
	v72 := vals[72]
	v77 := vals[77]
	v82 := vals[82]
	var n uint64
	for ; n < max; n++ {
		var v11 uint64
		if v9 != 0x0 {
			v11 = 1
		}
		var v13 uint64
		if v11 != 0 {
			v13 = 0x1
		} else {
			v13 = 0x4
		}
		var v22 uint64
		if addr := uint64(0x0); addr < uint64(len(m0)) {
			v22 = m0[addr] & 0xffff
		}
		v24 := (v22 - 0x1) & 0xffff
		v26 := (v9 - 0x1) & 0xffff
		v33 := (v31 + 0x3f) & 0xffffff
		v37 := (v35 + 0x1) & 0xffffff
		v43 := (v40 + 0xf) & 0xffffff
		v46 := (v45 + 0x1) & 0xffffff
		v49 := (v48 + v9) & 0xffffff
		v52 := (v51 + v24) & 0xffffff
		v55 := (v54 + 0x1) & 0xffffff
		v60 := (v57 + 0x1) & 0xffffff
		v65 := (v62 + 0x1) & 0xffffff
		v70 := (v67 + 0x1) & 0xffffff
		v75 := (v72 + 0x1) & 0xffffff
		v80 := (v77 + 0x1) & 0xffffff
		v84 := (v82 + 0x1) & 0xffffff
		var s20, s28, s34, s38, s44, s47, s50, s53, s56, s61, s66, s71, s76, s81, s85, s86 uint64
		switch v0 {
		case 0x0:
			v25 := 0x0 & v11
			v28 := v24
			v34 := v31
			v38 := v35
			v41 := (0x1 | v25)
			var v44 uint64
			if v41 != 0 {
				v44 = v43
			} else {
				v44 = v40
			}
			var v47 uint64
			if v41 != 0 {
				v47 = v46
			} else {
				v47 = v45
			}
			v50 := v49
			v53 := v52
			v56 := v55
			v61 := v57
			v66 := v62
			v71 := v67
			v76 := v72
			v81 := v77
			v85 := v84
			s86 = 0x0
			s20 = 0x1
			s28 = v28
			s34 = v34
			s38 = v38
			s44 = v44
			s47 = v47
			s50 = v50
			s53 = v53
			s56 = v56
			s61 = v61
			s66 = v66
			s71 = v71
			s76 = v76
			s81 = v81
			s85 = v85
		case 0x1:
			v25 := 0x0 & v11
			var v27 uint64
			if v25 != 0 {
				v27 = v26
			} else {
				v27 = v9
			}
			v28 := v27
			v34 := v33
			v38 := v37
			v41 := (0x0 | v25)
			var v44 uint64
			if v41 != 0 {
				v44 = v43
			} else {
				v44 = v40
			}
			var v47 uint64
			if v41 != 0 {
				v47 = v46
			} else {
				v47 = v45
			}
			v50 := v48
			v53 := v51
			v56 := v54
			v61 := v57
			v66 := v62
			v71 := v67
			v76 := v72
			v81 := v80
			v85 := v82
			s86 = 0x0
			s20 = 0x2
			s28 = v28
			s34 = v34
			s38 = v38
			s44 = v44
			s47 = v47
			s50 = v50
			s53 = v53
			s56 = v56
			s61 = v61
			s66 = v66
			s71 = v71
			s76 = v76
			s81 = v81
			s85 = v85
		case 0x2:
			v25 := 0x0 & v11
			var v27 uint64
			if v25 != 0 {
				v27 = v26
			} else {
				v27 = v9
			}
			v28 := v27
			v34 := v31
			v38 := v35
			v41 := (0x0 | v25)
			var v44 uint64
			if v41 != 0 {
				v44 = v43
			} else {
				v44 = v40
			}
			var v47 uint64
			if v41 != 0 {
				v47 = v46
			} else {
				v47 = v45
			}
			v50 := v48
			v53 := v51
			v56 := v54
			v61 := v57
			v66 := v62
			v71 := v67
			v76 := v75
			v81 := v77
			v85 := v82
			s86 = 0x0
			s20 = 0x3
			s28 = v28
			s34 = v34
			s38 = v38
			s44 = v44
			s47 = v47
			s50 = v50
			s53 = v53
			s56 = v56
			s61 = v61
			s66 = v66
			s71 = v71
			s76 = v76
			s81 = v81
			s85 = v85
		case 0x3:
			v17 := v13
			v18 := v17
			v19 := v18
			v20 := v19
			v25 := 0x1 & v11
			var v27 uint64
			if v25 != 0 {
				v27 = v26
			} else {
				v27 = v9
			}
			v28 := v27
			v34 := v31
			v38 := v35
			v41 := (0x0 | v25)
			var v44 uint64
			if v41 != 0 {
				v44 = v43
			} else {
				v44 = v40
			}
			var v47 uint64
			if v41 != 0 {
				v47 = v46
			} else {
				v47 = v45
			}
			v50 := v48
			v53 := v51
			v56 := v54
			var v58 uint64
			if v20 == 0x5 {
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
			if v20 == 0x4 {
				v63 = 1
			}
			v64 := 0x1 & v63
			var v66 uint64
			if v64 != 0 {
				v66 = v65
			} else {
				v66 = v62
			}
			var v68 uint64
			if v20 == 0x1 {
				v68 = 1
			}
			v69 := 0x1 & v68
			var v71 uint64
			if v69 != 0 {
				v71 = v70
			} else {
				v71 = v67
			}
			var v73 uint64
			if v20 == 0x3 {
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
			if v20 == 0x2 {
				v78 = 1
			}
			v79 := 0x0 & v78
			var v81 uint64
			if v79 != 0 {
				v81 = v80
			} else {
				v81 = v77
			}
			v83 := 0x0 & v68
			var v85 uint64
			if v83 != 0 {
				v85 = v84
			} else {
				v85 = v82
			}
			s86 = 0x0
			s20 = v20
			s28 = v28
			s34 = v34
			s38 = v38
			s44 = v44
			s47 = v47
			s50 = v50
			s53 = v53
			s56 = v56
			s61 = v61
			s66 = v66
			s71 = v71
			s76 = v76
			s81 = v81
			s85 = v85
		case 0x4:
			v25 := 0x0 & v11
			var v27 uint64
			if v25 != 0 {
				v27 = v26
			} else {
				v27 = v9
			}
			v28 := v27
			v34 := v31
			v38 := v35
			v41 := (0x0 | v25)
			var v44 uint64
			if v41 != 0 {
				v44 = v43
			} else {
				v44 = v40
			}
			var v47 uint64
			if v41 != 0 {
				v47 = v46
			} else {
				v47 = v45
			}
			v50 := v48
			v53 := v51
			v56 := v54
			v61 := v60
			v66 := v62
			v71 := v67
			v76 := v72
			v81 := v77
			v85 := v82
			s86 = 0x0
			s20 = 0x5
			s28 = v28
			s34 = v34
			s38 = v38
			s44 = v44
			s47 = v47
			s50 = v50
			s53 = v53
			s56 = v56
			s61 = v61
			s66 = v66
			s71 = v71
			s76 = v76
			s81 = v81
			s85 = v85
		case 0x5:
			v25 := 0x0 & v11
			var v27 uint64
			if v25 != 0 {
				v27 = v26
			} else {
				v27 = v9
			}
			v28 := v27
			v34 := v31
			v38 := v35
			v41 := (0x0 | v25)
			var v44 uint64
			if v41 != 0 {
				v44 = v43
			} else {
				v44 = v40
			}
			var v47 uint64
			if v41 != 0 {
				v47 = v46
			} else {
				v47 = v45
			}
			v50 := v48
			v53 := v51
			v56 := v54
			v61 := v57
			v66 := v62
			v71 := v67
			v76 := v72
			v81 := v77
			v85 := v82
			s86 = 0x1
			s20 = 0x5
			s28 = v28
			s34 = v34
			s38 = v38
			s44 = v44
			s47 = v47
			s50 = v50
			s53 = v53
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
			var v14 uint64
			if v0 == 0x4 {
				v14 = 1
			}
			var v16 uint64
			if v14 != 0 {
				v16 = 0x5
			} else {
				v16 = v0
			}
			var v17 uint64
			if v8 != 0 {
				v17 = v13
			} else {
				v17 = v16
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
			v25 := v8 & v11
			var v27 uint64
			if v25 != 0 {
				v27 = v26
			} else {
				v27 = v9
			}
			var v28 uint64
			if v2 != 0 {
				v28 = v24
			} else {
				v28 = v27
			}
			var v34 uint64
			if v4 != 0 {
				v34 = v33
			} else {
				v34 = v31
			}
			var v38 uint64
			if v4 != 0 {
				v38 = v37
			} else {
				v38 = v35
			}
			v41 := (v2 | v25)
			var v44 uint64
			if v41 != 0 {
				v44 = v43
			} else {
				v44 = v40
			}
			var v47 uint64
			if v41 != 0 {
				v47 = v46
			} else {
				v47 = v45
			}
			var v50 uint64
			if v2 != 0 {
				v50 = v49
			} else {
				v50 = v48
			}
			var v53 uint64
			if v2 != 0 {
				v53 = v52
			} else {
				v53 = v51
			}
			var v56 uint64
			if v2 != 0 {
				v56 = v55
			} else {
				v56 = v54
			}
			var v58 uint64
			if v20 == 0x5 {
				v58 = 1
			}
			v59 := v14 & v58
			var v61 uint64
			if v59 != 0 {
				v61 = v60
			} else {
				v61 = v57
			}
			var v63 uint64
			if v20 == 0x4 {
				v63 = 1
			}
			v64 := v8 & v63
			var v66 uint64
			if v64 != 0 {
				v66 = v65
			} else {
				v66 = v62
			}
			var v68 uint64
			if v20 == 0x1 {
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
			if v20 == 0x3 {
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
			if v20 == 0x2 {
				v78 = 1
			}
			v79 := v4 & v78
			var v81 uint64
			if v79 != 0 {
				v81 = v80
			} else {
				v81 = v77
			}
			v83 := v2 & v68
			var v85 uint64
			if v83 != 0 {
				v85 = v84
			} else {
				v85 = v82
			}
			var v86 uint64
			if v0 == 0x5 {
				v86 = 1
			}
			s86 = v86
			s20 = v20
			s28 = v28
			s34 = v34
			s38 = v38
			s44 = v44
			s47 = v47
			s50 = v50
			s53 = v53
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
		v0 = s20
		v9 = s28
		v29 = 0x0
		v31 = s34
		v35 = s38
		v39 = 0x0
		v40 = s44
		v45 = s47
		v48 = s50
		v51 = s53
		v54 = s56
		v57 = s61
		v62 = s66
		v67 = s71
		v72 = s76
		v77 = s81
		v82 = s85
	}
	vals[0] = v0
	vals[9] = v9
	vals[29] = v29
	vals[31] = v31
	vals[35] = v35
	vals[39] = v39
	vals[40] = v40
	vals[45] = v45
	vals[48] = v48
	vals[51] = v51
	vals[54] = v54
	vals[57] = v57
	vals[62] = v62
	vals[67] = v67
	vals[72] = v72
	vals[77] = v77
	vals[82] = v82
	return n
}

func run_sha_slice_t42(vals []uint64, mems [][]uint64, max uint64) uint64 {
	_ = vals[63]
	m0 := mems[0]
	v0 := vals[0]
	v9 := vals[9]
	v29 := vals[29]
	v33 := vals[33]
	v37 := vals[37]
	v42 := vals[42]
	v45 := vals[45]
	v48 := vals[48]
	v53 := vals[53]
	v58 := vals[58]
	var n uint64
	for ; n < max; n++ {
		var v11 uint64
		if v9 != 0x0 {
			v11 = 1
		}
		var v13 uint64
		if v11 != 0 {
			v13 = 0x1
		} else {
			v13 = 0x4
		}
		var v22 uint64
		if addr := uint64(0x0); addr < uint64(len(m0)) {
			v22 = m0[addr] & 0xffff
		}
		v24 := (v22 - 0x1) & 0xffff
		v26 := (v9 - 0x1) & 0xffff
		v31 := (v29 + 0x3f) & 0xffffff
		v35 := (v33 + 0x1) & 0xffffff
		v40 := (v37 + 0xf) & 0xffffff
		v43 := (v42 + 0x1) & 0xffffff
		v46 := (v45 + v24) & 0xffffff
		v51 := (v48 + 0x1) & 0xffffff
		v56 := (v53 + 0x1) & 0xffffff
		v61 := (v58 + 0x1) & 0xffffff
		var s20, s28, s32, s36, s41, s44, s47, s52, s57, s62, s63 uint64
		switch v0 {
		case 0x0:
			v25 := 0x0 & v11
			v28 := v24
			v32 := v29
			v36 := v33
			v38 := (0x1 | v25)
			var v41 uint64
			if v38 != 0 {
				v41 = v40
			} else {
				v41 = v37
			}
			var v44 uint64
			if v38 != 0 {
				v44 = v43
			} else {
				v44 = v42
			}
			v47 := v46
			v52 := v48
			v57 := v53
			v62 := v58
			s63 = 0x0
			s20 = 0x1
			s28 = v28
			s32 = v32
			s36 = v36
			s41 = v41
			s44 = v44
			s47 = v47
			s52 = v52
			s57 = v57
			s62 = v62
		case 0x1:
			v25 := 0x0 & v11
			var v27 uint64
			if v25 != 0 {
				v27 = v26
			} else {
				v27 = v9
			}
			v28 := v27
			v32 := v31
			v36 := v35
			v38 := (0x0 | v25)
			var v41 uint64
			if v38 != 0 {
				v41 = v40
			} else {
				v41 = v37
			}
			var v44 uint64
			if v38 != 0 {
				v44 = v43
			} else {
				v44 = v42
			}
			v47 := v45
			v52 := v48
			v57 := v53
			v62 := v61
			s63 = 0x0
			s20 = 0x2
			s28 = v28
			s32 = v32
			s36 = v36
			s41 = v41
			s44 = v44
			s47 = v47
			s52 = v52
			s57 = v57
			s62 = v62
		case 0x2:
			v25 := 0x0 & v11
			var v27 uint64
			if v25 != 0 {
				v27 = v26
			} else {
				v27 = v9
			}
			v28 := v27
			v32 := v29
			v36 := v33
			v38 := (0x0 | v25)
			var v41 uint64
			if v38 != 0 {
				v41 = v40
			} else {
				v41 = v37
			}
			var v44 uint64
			if v38 != 0 {
				v44 = v43
			} else {
				v44 = v42
			}
			v47 := v45
			v52 := v48
			v57 := v56
			v62 := v58
			s63 = 0x0
			s20 = 0x3
			s28 = v28
			s32 = v32
			s36 = v36
			s41 = v41
			s44 = v44
			s47 = v47
			s52 = v52
			s57 = v57
			s62 = v62
		case 0x3:
			v17 := v13
			v18 := v17
			v19 := v18
			v20 := v19
			v25 := 0x1 & v11
			var v27 uint64
			if v25 != 0 {
				v27 = v26
			} else {
				v27 = v9
			}
			v28 := v27
			v32 := v29
			v36 := v33
			v38 := (0x0 | v25)
			var v41 uint64
			if v38 != 0 {
				v41 = v40
			} else {
				v41 = v37
			}
			var v44 uint64
			if v38 != 0 {
				v44 = v43
			} else {
				v44 = v42
			}
			v47 := v45
			var v49 uint64
			if v20 == 0x1 {
				v49 = 1
			}
			v50 := 0x1 & v49
			var v52 uint64
			if v50 != 0 {
				v52 = v51
			} else {
				v52 = v48
			}
			var v54 uint64
			if v20 == 0x3 {
				v54 = 1
			}
			v55 := 0x0 & v54
			var v57 uint64
			if v55 != 0 {
				v57 = v56
			} else {
				v57 = v53
			}
			var v59 uint64
			if v20 == 0x2 {
				v59 = 1
			}
			v60 := 0x0 & v59
			var v62 uint64
			if v60 != 0 {
				v62 = v61
			} else {
				v62 = v58
			}
			s63 = 0x0
			s20 = v20
			s28 = v28
			s32 = v32
			s36 = v36
			s41 = v41
			s44 = v44
			s47 = v47
			s52 = v52
			s57 = v57
			s62 = v62
		case 0x4:
			v25 := 0x0 & v11
			var v27 uint64
			if v25 != 0 {
				v27 = v26
			} else {
				v27 = v9
			}
			v28 := v27
			v32 := v29
			v36 := v33
			v38 := (0x0 | v25)
			var v41 uint64
			if v38 != 0 {
				v41 = v40
			} else {
				v41 = v37
			}
			var v44 uint64
			if v38 != 0 {
				v44 = v43
			} else {
				v44 = v42
			}
			v47 := v45
			v52 := v48
			v57 := v53
			v62 := v58
			s63 = 0x0
			s20 = 0x5
			s28 = v28
			s32 = v32
			s36 = v36
			s41 = v41
			s44 = v44
			s47 = v47
			s52 = v52
			s57 = v57
			s62 = v62
		case 0x5:
			v25 := 0x0 & v11
			var v27 uint64
			if v25 != 0 {
				v27 = v26
			} else {
				v27 = v9
			}
			v28 := v27
			v32 := v29
			v36 := v33
			v38 := (0x0 | v25)
			var v41 uint64
			if v38 != 0 {
				v41 = v40
			} else {
				v41 = v37
			}
			var v44 uint64
			if v38 != 0 {
				v44 = v43
			} else {
				v44 = v42
			}
			v47 := v45
			v52 := v48
			v57 := v53
			v62 := v58
			s63 = 0x1
			s20 = 0x5
			s28 = v28
			s32 = v32
			s36 = v36
			s41 = v41
			s44 = v44
			s47 = v47
			s52 = v52
			s57 = v57
			s62 = v62
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
			var v14 uint64
			if v0 == 0x4 {
				v14 = 1
			}
			var v16 uint64
			if v14 != 0 {
				v16 = 0x5
			} else {
				v16 = v0
			}
			var v17 uint64
			if v8 != 0 {
				v17 = v13
			} else {
				v17 = v16
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
			v25 := v8 & v11
			var v27 uint64
			if v25 != 0 {
				v27 = v26
			} else {
				v27 = v9
			}
			var v28 uint64
			if v2 != 0 {
				v28 = v24
			} else {
				v28 = v27
			}
			var v32 uint64
			if v4 != 0 {
				v32 = v31
			} else {
				v32 = v29
			}
			var v36 uint64
			if v4 != 0 {
				v36 = v35
			} else {
				v36 = v33
			}
			v38 := (v2 | v25)
			var v41 uint64
			if v38 != 0 {
				v41 = v40
			} else {
				v41 = v37
			}
			var v44 uint64
			if v38 != 0 {
				v44 = v43
			} else {
				v44 = v42
			}
			var v47 uint64
			if v2 != 0 {
				v47 = v46
			} else {
				v47 = v45
			}
			var v49 uint64
			if v20 == 0x1 {
				v49 = 1
			}
			v50 := v8 & v49
			var v52 uint64
			if v50 != 0 {
				v52 = v51
			} else {
				v52 = v48
			}
			var v54 uint64
			if v20 == 0x3 {
				v54 = 1
			}
			v55 := v6 & v54
			var v57 uint64
			if v55 != 0 {
				v57 = v56
			} else {
				v57 = v53
			}
			var v59 uint64
			if v20 == 0x2 {
				v59 = 1
			}
			v60 := v4 & v59
			var v62 uint64
			if v60 != 0 {
				v62 = v61
			} else {
				v62 = v58
			}
			var v63 uint64
			if v0 == 0x5 {
				v63 = 1
			}
			s63 = v63
			s20 = v20
			s28 = v28
			s32 = v32
			s36 = v36
			s41 = v41
			s44 = v44
			s47 = v47
			s52 = v52
			s57 = v57
			s62 = v62
		}
		if s63 != 0 {
			break
		}
		v0 = s20
		v9 = s28
		v29 = s32
		v33 = s36
		v37 = s41
		v42 = s44
		v45 = s47
		v48 = s52
		v53 = s57
		v58 = s62
	}
	vals[0] = v0
	vals[9] = v9
	vals[29] = v29
	vals[33] = v33
	vals[37] = v37
	vals[42] = v42
	vals[45] = v45
	vals[48] = v48
	vals[53] = v53
	vals[58] = v58
	return n
}

func init() {
	rtl.RegisterNative("d989664d881f60f5fc3bbf9ac06d023546d9144a13c276837d59bf44e26ee7b7", "sha", run_sha)
	rtl.RegisterNative("370d9a7aa2f5d6a756848dc79a13cb7b8b4beff924285252dc46a602348eefd5", "sha_ins", run_sha_ins)
	rtl.RegisterNative("5a810c84cc97968f08537c4d7530287712209628c155183b5c299951444339bb", "sha_pruned", run_sha_pruned)
	rtl.RegisterNative("b7785925d1651b69335eafcafb7922228b9be2275ed44878100b260aa9467530", "sha_slice_all", run_sha_slice_all)
	rtl.RegisterNative("2e4b2e9f4d59aabb42b25949d22e9544d035c67ba5e73c88fc6284a510a3d3ef", "sha_slice_t42", run_sha_slice_t42)
}
