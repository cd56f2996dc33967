// Code generated by rtlgen. DO NOT EDIT.
//
// Regenerate with: go generate ./internal/rtl/native

package native

import "repro/internal/rtl"

func run_h264(vals []uint64, mems [][]uint64, max uint64) uint64 {
	_ = vals[286]
	m0 := mems[0]
	m1 := mems[1]
	v0 := vals[0]
	v22 := vals[22]
	v27 := vals[27]
	v44 := vals[44]
	v57 := vals[57]
	v71 := vals[71]
	v94 := vals[94]
	v142 := vals[142]
	v152 := vals[152]
	v163 := vals[163]
	v175 := vals[175]
	v187 := vals[187]
	v199 := vals[199]
	v211 := vals[211]
	v223 := vals[223]
	v234 := vals[234]
	v245 := vals[245]
	v257 := vals[257]
	v269 := vals[269]
	v283 := vals[283]
	var n uint64
	for ; n < max; n++ {
		var v2 uint64
		if addr := uint64(0x0); addr < uint64(len(m0)) {
			v2 = m0[addr] & 0x1fff
		}
		var v3 uint64
		if addr := uint64(v0); addr < uint64(len(m0)) {
			v3 = m0[addr] & 0xfffffff
		}
		v5 := v3 & 0x3
		v7 := (v3 >> 2)
		v9 := v7 & 0x3f
		v11 := (v3 >> 8)
		v13 := v11 & 0x1
		v15 := (v3 >> 9)
		v17 := v15 & 0x7
		v19 := (v3 >> 12)
		v21 := v19 & 0xffff
		v24 := (v9 >> 1)
		var v29 uint64
		if v27 != 0x0 {
			v29 = 1
		}
		v31 := (v27 - 0x1) & 0xff
		var v32 uint64
		if v29 != 0 {
			v32 = v31
		} else {
			v32 = v27
		}
		v34 := (v9 | 0x0)
		v35 := (v9 >> 2)
		v36 := (v34 - v35) & 0xff
		v38 := (0xa + v36) & 0xff
		var v42 uint64
		if v5 == 0x1 {
			v42 = 1
		}
		var v45 uint64
		if v44 != 0x0 {
			v45 = 1
		}
		v46 := (v44 - 0x1) & 0xff
		var v47 uint64
		if v45 != 0 {
			v47 = v46
		} else {
			v47 = v44
		}
		v49 := (v17 | 0x0)
		v50 := (v49 << 1) & 0xff
		v51 := (v49 + v50) & 0xff
		v53 := (0x3 + v51) & 0xff
		var v55 uint64
		if v5 == 0x2 {
			v55 = 1
		}
		var v58 uint64
		if v57 != 0x0 {
			v58 = 1
		}
		v59 := (v57 - 0x1) & 0xff
		var v60 uint64
		if v58 != 0 {
			v60 = v59
		} else {
			v60 = v57
		}
		var v63 uint64
		if v13 != 0 {
			v63 = 0x14
		} else {
			v63 = 0x0
		}
		v65 := (0x2 + v51) & 0xff
		v66 := (v65 + v63) & 0xff
		var v69 uint64
		if v57 == 0x0 {
			v69 = 1
		}
		var v72 uint64
		if v71 != 0x0 {
			v72 = 1
		}
		v73 := (v71 - 0x1) & 0xff
		var v74 uint64
		if v72 != 0 {
			v74 = v73
		} else {
			v74 = v71
		}
		var v77 uint64
		if v9 != 0x0 {
			v77 = 1
		}
		var v80 uint64
		if v77 != 0 {
			v80 = 0xc
		} else {
			v80 = 0x8
		}
		var v83 uint64
		if v44 == 0x0 {
			v83 = 1
		}
		var v87 uint64
		if v71 == 0x0 {
			v87 = 1
		}
		var v91 uint64
		if v5 == 0x0 {
			v91 = 1
		}
		var v95 uint64
		if v94 != 0x0 {
			v95 = 1
		}
		v96 := (v94 - 0x1) & 0xff
		var v97 uint64
		if v95 != 0 {
			v97 = v96
		} else {
			v97 = v94
		}
		var v99 uint64
		if v27 == 0x0 {
			v99 = 1
		}
		var v100 uint64
		if v94 == 0x0 {
			v100 = 1
		}
		var v101 uint64
		if v2 <= v0 {
			v101 = 1
		}
		var v103 uint64
		if v101 != 0 {
			v103 = 0x9
		} else {
			v103 = 0x1
		}
		var v117 uint64
		if v42 != 0 {
			v117 = 0x4
		} else {
			v117 = 0x5
		}
		var v118 uint64
		if v91 != 0 {
			v118 = 0x7
		} else {
			v118 = v117
		}
		v129 := (v0 + 0x1) & 0x1fff
		v134 := (v21 | 0x0)
		v136 := (v134 << 0) & 0xffffffffffff
		v137 := (v134 >> 0)
		v138 := (v136 | v137)
		v140 := (v138 + 0x1) & 0xffffffffffff
		v141 := (v138 * v140) & 0xffffffffffff
		v143 := (v142 + v141) & 0xffffffffffff
		v145 := (v134 << 1) & 0xffffffffffff
		v147 := (v134 >> 47)
		v148 := (v145 | v147)
		v150 := (v148 + 0x3) & 0xffffffffffff
		v151 := (v148 * v150) & 0xffffffffffff
		v153 := (v152 + v151) & 0xffffffffffff
		v155 := (v142 ^ v152)
		v156 := (v134 << 2) & 0xffffffffffff
		v158 := (v134 >> 46)
		v159 := (v156 | v158)
		v161 := (v159 + 0x5) & 0xffffffffffff
		v162 := (v159 * v161) & 0xffffffffffff
		v164 := (v163 + v162) & 0xffffffffffff
		v166 := (v155 ^ v163)
		v168 := (v134 << 3) & 0xffffffffffff
		v170 := (v134 >> 45)
		v171 := (v168 | v170)
		v173 := (v171 + 0x7) & 0xffffffffffff
		v174 := (v171 * v173) & 0xffffffffffff
		v176 := (v175 + v174) & 0xffffffffffff
		v178 := (v166 ^ v175)
		v180 := (v134 << 4) & 0xffffffffffff
		v182 := (v134 >> 44)
		v183 := (v180 | v182)
		v185 := (v183 + 0x9) & 0xffffffffffff
		v186 := (v183 * v185) & 0xffffffffffff
		v188 := (v187 + v186) & 0xffffffffffff
		v190 := (v178 ^ v187)
		v192 := (v134 << 5) & 0xffffffffffff
		v194 := (v134 >> 43)
		v195 := (v192 | v194)
		v197 := (v195 + 0xb) & 0xffffffffffff
		v198 := (v195 * v197) & 0xffffffffffff
		v200 := (v199 + v198) & 0xffffffffffff
		v202 := (v190 ^ v199)
		v204 := (v134 << 6) & 0xffffffffffff
		v206 := (v134 >> 42)
		v207 := (v204 | v206)
		v209 := (v207 + 0xd) & 0xffffffffffff
		v210 := (v207 * v209) & 0xffffffffffff
		v212 := (v211 + v210) & 0xffffffffffff
		v214 := (v202 ^ v211)
		v216 := (v134 << 7) & 0xffffffffffff
		v218 := (v134 >> 41)
		v219 := (v216 | v218)
		v221 := (v219 + 0xf) & 0xffffffffffff
		v222 := (v219 * v221) & 0xffffffffffff
		v224 := (v223 + v222) & 0xffffffffffff
		v226 := (v214 ^ v223)
		v227 := (v134 << 8) & 0xffffffffffff
		v229 := (v134 >> 40)
		v230 := (v227 | v229)
		v232 := (v230 + 0x11) & 0xffffffffffff
		v233 := (v230 * v232) & 0xffffffffffff
		v235 := (v234 + v233) & 0xffffffffffff
		v237 := (v226 ^ v234)
		v238 := (v134 << 9) & 0xffffffffffff
		v240 := (v134 >> 39)
		v241 := (v238 | v240)
		v243 := (v241 + 0x13) & 0xffffffffffff
		v244 := (v241 * v243) & 0xffffffffffff
		v246 := (v245 + v244) & 0xffffffffffff
		v248 := (v237 ^ v245)
		v250 := (v134 << 10) & 0xffffffffffff
		v252 := (v134 >> 38)
		v253 := (v250 | v252)
		v255 := (v253 + 0x15) & 0xffffffffffff
		v256 := (v253 * v255) & 0xffffffffffff
		v258 := (v257 + v256) & 0xffffffffffff
		v260 := (v248 ^ v257)
		v262 := (v134 << 11) & 0xffffffffffff
		v264 := (v134 >> 37)
		v265 := (v262 | v264)
		v267 := (v265 + 0x17) & 0xffffffffffff
		v268 := (v265 * v267) & 0xffffffffffff
		v270 := (v269 + v268) & 0xffffffffffff
		v272 := (v260 ^ v269)
		v273 := (v21 * v21) & 0xffffffff
		v274 := (v9 * v9) & 0xffffffff
		v275 := (v273 + v274) & 0xffffffff
		v276 := (v275 >> 2)
		v277 := (v275 >> 1)
		v278 := (v276 + v277) & 0xffffffff
		v279 := (v278 + v275) & 0xffffffff
		v281 := v272 & 0xffffffff
		v282 := (v279 ^ v281)
		v284 := (v283 + v282) & 0xffffffff
		var s33, s48, s61, s75, s98, s105, s127, s130, s144, s154, s165, s177, s189, s201, s213, s225, s236, s247, s259, s271, s285, s286 uint64
		switch v22 {
		case 0x0:
			v33 := v32
			v43 := 0x0 & v42
			var v48 uint64
			if v43 != 0 {
				v48 = v38
			} else {
				v48 = v47
			}
			v56 := 0x0 & v55
			var v61 uint64
			if v56 != 0 {
				v61 = v53
			} else {
				v61 = v60
			}
			v70 := 0x0 & v69
			var v75 uint64
			if v70 != 0 {
				v75 = v66
			} else {
				v75 = v74
			}
			v84 := 0x0 & v83
			v88 := 0x0 & v87
			v89 := (v84 | v88)
			v92 := 0x0 & v91
			v93 := (v89 | v92)
			var v98 uint64
			if v93 != 0 {
				v98 = v80
			} else {
				v98 = v97
			}
			v130 := v0
			v144 := v142
			v154 := v152
			v165 := v163
			v177 := v175
			v189 := v187
			v201 := v199
			v213 := v211
			v225 := v223
			v236 := v234
			v247 := v245
			v259 := v257
			v271 := v269
			v285 := v283
			s286 = 0x0
			s130 = v130
			s127 = 0x1
			s33 = v33
			s48 = v48
			s61 = v61
			s75 = v75
			s98 = v98
			s144 = v144
			s154 = v154
			s165 = v165
			s177 = v177
			s189 = v189
			s201 = v201
			s213 = v213
			s225 = v225
			s236 = v236
			s247 = v247
			s259 = v259
			s271 = v271
			s285 = v285
			s105 = 0x0
		case 0x1:
			v33 := v24
			v43 := 0x0 & v42
			var v48 uint64
			if v43 != 0 {
				v48 = v38
			} else {
				v48 = v47
			}
			v56 := 0x0 & v55
			var v61 uint64
			if v56 != 0 {
				v61 = v53
			} else {
				v61 = v60
			}
			v70 := 0x0 & v69
			var v75 uint64
			if v70 != 0 {
				v75 = v66
			} else {
				v75 = v74
			}
			v84 := 0x0 & v83
			v88 := 0x0 & v87
			v89 := (v84 | v88)
			v92 := 0x0 & v91
			v93 := (v89 | v92)
			var v98 uint64
			if v93 != 0 {
				v98 = v80
			} else {
				v98 = v97
			}
			v130 := v0
			v144 := v142
			v154 := v152
			v165 := v163
			v177 := v175
			v189 := v187
			v201 := v199
			v213 := v211
			v225 := v223
			v236 := v234
			v247 := v245
			v259 := v257
			v271 := v269
			v285 := v283
			s286 = 0x0
			s130 = v130
			s127 = 0x2
			s33 = v33
			s48 = v48
			s61 = v61
			s75 = v75
			s98 = v98
			s144 = v144
			s154 = v154
			s165 = v165
			s177 = v177
			s189 = v189
			s201 = v201
			s213 = v213
			s225 = v225
			s236 = v236
			s247 = v247
			s259 = v259
			s271 = v271
			s285 = v285
			s105 = 0x0
		case 0x2:
			v33 := v32
			v43 := 0x0 & v42
			var v48 uint64
			if v43 != 0 {
				v48 = v38
			} else {
				v48 = v47
			}
			v56 := 0x0 & v55
			var v61 uint64
			if v56 != 0 {
				v61 = v53
			} else {
				v61 = v60
			}
			v70 := 0x0 & v69
			var v75 uint64
			if v70 != 0 {
				v75 = v66
			} else {
				v75 = v74
			}
			v84 := 0x0 & v83
			v88 := 0x0 & v87
			v89 := (v84 | v88)
			v92 := 0x0 & v91
			v93 := (v89 | v92)
			var v98 uint64
			if v93 != 0 {
				v98 = v80
			} else {
				v98 = v97
			}
			var v120 uint64
			if v99 != 0 {
				v120 = 0x3
			} else {
				v120 = 0x2
			}
			v123 := v120
			v124 := v123
			v127 := v124
			v130 := v0
			v144 := v142
			v154 := v152
			v165 := v163
			v177 := v175
			v189 := v187
			v201 := v199
			v213 := v211
			v225 := v223
			v236 := v234
			v247 := v245
			v259 := v257
			v271 := v269
			v285 := v283
			s286 = 0x0
			s130 = v130
			s127 = v127
			s33 = v33
			s48 = v48
			s61 = v61
			s75 = v75
			s98 = v98
			s144 = v144
			s154 = v154
			s165 = v165
			s177 = v177
			s189 = v189
			s201 = v201
			s213 = v213
			s225 = v225
			s236 = v236
			s247 = v247
			s259 = v259
			s271 = v271
			s285 = v285
			s105 = 0x0
		case 0x3:
			v33 := v32
			v43 := 0x1 & v42
			var v48 uint64
			if v43 != 0 {
				v48 = v38
			} else {
				v48 = v47
			}
			v56 := 0x1 & v55
			var v61 uint64
			if v56 != 0 {
				v61 = v53
			} else {
				v61 = v60
			}
			v70 := 0x0 & v69
			var v75 uint64
			if v70 != 0 {
				v75 = v66
			} else {
				v75 = v74
			}
			v84 := 0x0 & v83
			v88 := 0x0 & v87
			v89 := (v84 | v88)
			v92 := 0x1 & v91
			v93 := (v89 | v92)
			var v98 uint64
			if v93 != 0 {
				v98 = v80
			} else {
				v98 = v97
			}
			v119 := v118
			v123 := v119
			v124 := v123
			v127 := v124
			v130 := v0
			v144 := v142
			v154 := v152
			v165 := v163
			v177 := v175
			v189 := v187
			v201 := v199
			v213 := v211
			v225 := v223
			v236 := v234
			v247 := v245
			v259 := v257
			v271 := v269
			v285 := v283
			s286 = 0x0
			s130 = v130
			s127 = v127
			s33 = v33
			s48 = v48
			s61 = v61
			s75 = v75
			s98 = v98
			s144 = v144
			s154 = v154
			s165 = v165
			s177 = v177
			s189 = v189
			s201 = v201
			s213 = v213
			s225 = v225
			s236 = v236
			s247 = v247
			s259 = v259
			s271 = v271
			s285 = v285
			s105 = 0x0
		case 0x4:
			v33 := v32
			v43 := 0x0 & v42
			var v48 uint64
			if v43 != 0 {
				v48 = v38
			} else {
				v48 = v47
			}
			v56 := 0x0 & v55
			var v61 uint64
			if v56 != 0 {
				v61 = v53
			} else {
				v61 = v60
			}
			v70 := 0x0 & v69
			var v75 uint64
			if v70 != 0 {
				v75 = v66
			} else {
				v75 = v74
			}
			v84 := 0x1 & v83
			v88 := 0x0 & v87
			v89 := (v84 | v88)
			v92 := 0x0 & v91
			v93 := (v89 | v92)
			var v98 uint64
			if v93 != 0 {
				v98 = v80
			} else {
				v98 = v97
			}
			var v115 uint64
			if v83 != 0 {
				v115 = 0x7
			} else {
				v115 = 0x4
			}
			v116 := v115
			v119 := v116
			v123 := v119
			v124 := v123
			v127 := v124
			v130 := v0
			v144 := v143
			v154 := v153
			v165 := v164
			v177 := v176
			v189 := v188
			v201 := v200
			v213 := v212
			v225 := v224
			v236 := v235
			v247 := v246
			v259 := v258
			v271 := v270
			v285 := v284
			s286 = 0x0
			s130 = v130
			s127 = v127
			s33 = v33
			s48 = v48
			s61 = v61
			s75 = v75
			s98 = v98
			s144 = v144
			s154 = v154
			s165 = v165
			s177 = v177
			s189 = v189
			s201 = v201
			s213 = v213
			s225 = v225
			s236 = v236
			s247 = v247
			s259 = v259
			s271 = v271
			s285 = v285
			s105 = 0x0
		case 0x5:
			v33 := v32
			v43 := 0x0 & v42
			var v48 uint64
			if v43 != 0 {
				v48 = v38
			} else {
				v48 = v47
			}
			v56 := 0x0 & v55
			var v61 uint64
			if v56 != 0 {
				v61 = v53
			} else {
				v61 = v60
			}
			v70 := 0x1 & v69
			var v75 uint64
			if v70 != 0 {
				v75 = v66
			} else {
				v75 = v74
			}
			v84 := 0x0 & v83
			v88 := 0x0 & v87
			v89 := (v84 | v88)
			v92 := 0x0 & v91
			v93 := (v89 | v92)
			var v98 uint64
			if v93 != 0 {
				v98 = v80
			} else {
				v98 = v97
			}
			var v113 uint64
			if v69 != 0 {
				v113 = 0x6
			} else {
				v113 = 0x5
			}
			v114 := v113
			v116 := v114
			v119 := v116
			v123 := v119
			v124 := v123
			v127 := v124
			v130 := v0
			v144 := v142
			v154 := v152
			v165 := v163
			v177 := v175
			v189 := v187
			v201 := v199
			v213 := v211
			v225 := v223
			v236 := v234
			v247 := v245
			v259 := v257
			v271 := v269
			v285 := v283
			s286 = 0x0
			s130 = v130
			s127 = v127
			s33 = v33
			s48 = v48
			s61 = v61
			s75 = v75
			s98 = v98
			s144 = v144
			s154 = v154
			s165 = v165
			s177 = v177
			s189 = v189
			s201 = v201
			s213 = v213
			s225 = v225
			s236 = v236
			s247 = v247
			s259 = v259
			s271 = v271
			s285 = v285
			s105 = 0x0
		case 0x6:
			v33 := v32
			v43 := 0x0 & v42
			var v48 uint64
			if v43 != 0 {
				v48 = v38
			} else {
				v48 = v47
			}
			v56 := 0x0 & v55
			var v61 uint64
			if v56 != 0 {
				v61 = v53
			} else {
				v61 = v60
			}
			v70 := 0x0 & v69
			var v75 uint64
			if v70 != 0 {
				v75 = v66
			} else {
				v75 = v74
			}
			v84 := 0x0 & v83
			v88 := 0x1 & v87
			v89 := (v84 | v88)
			v92 := 0x0 & v91
			v93 := (v89 | v92)
			var v98 uint64
			if v93 != 0 {
				v98 = v80
			} else {
				v98 = v97
			}
			var v111 uint64
			if v87 != 0 {
				v111 = 0x7
			} else {
				v111 = 0x6
			}
			v112 := v111
			v114 := v112
			v116 := v114
			v119 := v116
			v123 := v119
			v124 := v123
			v127 := v124
			v130 := v0
			v144 := v143
			v154 := v153
			v165 := v164
			v177 := v176
			v189 := v188
			v201 := v200
			v213 := v212
			v225 := v224
			v236 := v235
			v247 := v246
			v259 := v258
			v271 := v270
			v285 := v284
			s286 = 0x0
			s130 = v130
			s127 = v127
			s33 = v33
			s48 = v48
			s61 = v61
			s75 = v75
			s98 = v98
			s144 = v144
			s154 = v154
			s165 = v165
			s177 = v177
			s189 = v189
			s201 = v201
			s213 = v213
			s225 = v225
			s236 = v236
			s247 = v247
			s259 = v259
			s271 = v271
			s285 = v285
			s105 = 0x0
		case 0x7:
			v33 := v32
			v43 := 0x0 & v42
			var v48 uint64
			if v43 != 0 {
				v48 = v38
			} else {
				v48 = v47
			}
			v56 := 0x0 & v55
			var v61 uint64
			if v56 != 0 {
				v61 = v53
			} else {
				v61 = v60
			}
			v70 := 0x0 & v69
			var v75 uint64
			if v70 != 0 {
				v75 = v66
			} else {
				v75 = v74
			}
			v84 := 0x0 & v83
			v88 := 0x0 & v87
			v89 := (v84 | v88)
			v92 := 0x0 & v91
			v93 := (v89 | v92)
			var v98 uint64
			if v93 != 0 {
				v98 = v80
			} else {
				v98 = v97
			}
			var v107 uint64
			if v100 != 0 {
				v107 = 0x8
			} else {
				v107 = 0x7
			}
			v110 := v107
			v112 := v110
			v114 := v112
			v116 := v114
			v119 := v116
			v123 := v119
			v124 := v123
			v127 := v124
			v130 := v0
			v144 := v143
			v154 := v153
			v165 := v164
			v177 := v176
			v189 := v188
			v201 := v200
			v213 := v212
			v225 := v224
			v236 := v235
			v247 := v246
			v259 := v258
			v271 := v270
			v285 := v284
			s286 = 0x0
			s130 = v130
			s127 = v127
			s33 = v33
			s48 = v48
			s61 = v61
			s75 = v75
			s98 = v98
			s144 = v144
			s154 = v154
			s165 = v165
			s177 = v177
			s189 = v189
			s201 = v201
			s213 = v213
			s225 = v225
			s236 = v236
			s247 = v247
			s259 = v259
			s271 = v271
			s285 = v285
			s105 = 0x0
		case 0x8:
			v33 := v32
			v43 := 0x0 & v42
			var v48 uint64
			if v43 != 0 {
				v48 = v38
			} else {
				v48 = v47
			}
			v56 := 0x0 & v55
			var v61 uint64
			if v56 != 0 {
				v61 = v53
			} else {
				v61 = v60
			}
			v70 := 0x0 & v69
			var v75 uint64
			if v70 != 0 {
				v75 = v66
			} else {
				v75 = v74
			}
			v84 := 0x0 & v83
			v88 := 0x0 & v87
			v89 := (v84 | v88)
			v92 := 0x0 & v91
			v93 := (v89 | v92)
			var v98 uint64
			if v93 != 0 {
				v98 = v80
			} else {
				v98 = v97
			}
			v106 := v103
			v110 := v106
			v112 := v110
			v114 := v112
			v116 := v114
			v119 := v116
			v123 := v119
			v124 := v123
			v127 := v124
			v130 := v129
			v144 := v142
			v154 := v152
			v165 := v163
			v177 := v175
			v189 := v187
			v201 := v199
			v213 := v211
			v225 := v223
			v236 := v234
			v247 := v245
			v259 := v257
			v271 := v269
			v285 := v283
			s286 = 0x0
			s130 = v130
			s127 = v127
			s33 = v33
			s48 = v48
			s61 = v61
			s75 = v75
			s98 = v98
			s144 = v144
			s154 = v154
			s165 = v165
			s177 = v177
			s189 = v189
			s201 = v201
			s213 = v213
			s225 = v225
			s236 = v236
			s247 = v247
			s259 = v259
			s271 = v271
			s285 = v285
			s105 = 0x1
		case 0x9:
			v33 := v32
			v43 := 0x0 & v42
			var v48 uint64
			if v43 != 0 {
				v48 = v38
			} else {
				v48 = v47
			}
			v56 := 0x0 & v55
			var v61 uint64
			if v56 != 0 {
				v61 = v53
			} else {
				v61 = v60
			}
			v70 := 0x0 & v69
			var v75 uint64
			if v70 != 0 {
				v75 = v66
			} else {
				v75 = v74
			}
			v84 := 0x0 & v83
			v88 := 0x0 & v87
			v89 := (v84 | v88)
			v92 := 0x0 & v91
			v93 := (v89 | v92)
			var v98 uint64
			if v93 != 0 {
				v98 = v80
			} else {
				v98 = v97
			}
			v130 := v0
			v144 := v142
			v154 := v152
			v165 := v163
			v177 := v175
			v189 := v187
			v201 := v199
			v213 := v211
			v225 := v223
			v236 := v234
			v247 := v245
			v259 := v257
			v271 := v269
			v285 := v283
			s286 = 0x1
			s130 = v130
			s127 = 0x9
			s33 = v33
			s48 = v48
			s61 = v61
			s75 = v75
			s98 = v98
			s144 = v144
			s154 = v154
			s165 = v165
			s177 = v177
			s189 = v189
			s201 = v201
			s213 = v213
			s225 = v225
			s236 = v236
			s247 = v247
			s259 = v259
			s271 = v271
			s285 = v285
			s105 = 0x0
		default:
			var v26 uint64
			if v22 == 0x1 {
				v26 = 1
			}
			var v33 uint64
			if v26 != 0 {
				v33 = v24
			} else {
				v33 = v32
			}
			var v40 uint64
			if v22 == 0x3 {
				v40 = 1
			}
			v43 := v40 & v42
			var v48 uint64
			if v43 != 0 {
				v48 = v38
			} else {
				v48 = v47
			}
			v56 := v40 & v55
			var v61 uint64
			if v56 != 0 {
				v61 = v53
			} else {
				v61 = v60
			}
			var v68 uint64
			if v22 == 0x5 {
				v68 = 1
			}
			v70 := v68 & v69
			var v75 uint64
			if v70 != 0 {
				v75 = v66
			} else {
				v75 = v74
			}
			var v82 uint64
			if v22 == 0x4 {
				v82 = 1
			}
			v84 := v82 & v83
			var v86 uint64
			if v22 == 0x6 {
				v86 = 1
			}
			v88 := v86 & v87
			v89 := (v84 | v88)
			v92 := v40 & v91
			v93 := (v89 | v92)
			var v98 uint64
			if v93 != 0 {
				v98 = v80
			} else {
				v98 = v97
			}
			var v105 uint64
			if v22 == 0x8 {
				v105 = 1
			}
			var v106 uint64
			if v105 != 0 {
				v106 = v103
			} else {
				v106 = v22
			}
			var v107 uint64
			if v100 != 0 {
				v107 = 0x8
			} else {
				v107 = v22
			}
			var v109 uint64
			if v22 == 0x7 {
				v109 = 1
			}
			var v110 uint64
			if v109 != 0 {
				v110 = v107
			} else {
				v110 = v106
			}
			var v111 uint64
			if v87 != 0 {
				v111 = 0x7
			} else {
				v111 = v22
			}
			var v112 uint64
			if v86 != 0 {
				v112 = v111
			} else {
				v112 = v110
			}
			var v113 uint64
			if v69 != 0 {
				v113 = 0x6
			} else {
				v113 = v22
			}
			var v114 uint64
			if v68 != 0 {
				v114 = v113
			} else {
				v114 = v112
			}
			var v115 uint64
			if v83 != 0 {
				v115 = 0x7
			} else {
				v115 = v22
			}
			var v116 uint64
			if v82 != 0 {
				v116 = v115
			} else {
				v116 = v114
			}
			var v119 uint64
			if v40 != 0 {
				v119 = v118
			} else {
				v119 = v116
			}
			var v120 uint64
			if v99 != 0 {
				v120 = 0x3
			} else {
				v120 = v22
			}
			var v122 uint64
			if v22 == 0x2 {
				v122 = 1
			}
			var v123 uint64
			if v122 != 0 {
				v123 = v120
			} else {
				v123 = v119
			}
			var v124 uint64
			if v26 != 0 {
				v124 = 0x2
			} else {
				v124 = v123
			}
			var v126 uint64
			if v22 == 0x0 {
				v126 = 1
			}
			var v127 uint64
			if v126 != 0 {
				v127 = 0x1
			} else {
				v127 = v124
			}
			var v130 uint64
			if v105 != 0 {
				v130 = v129
			} else {
				v130 = v0
			}
			v131 := (v82 | v86)
			v132 := (v131 | v109)
			var v144 uint64
			if v132 != 0 {
				v144 = v143
			} else {
				v144 = v142
			}
			var v154 uint64
			if v132 != 0 {
				v154 = v153
			} else {
				v154 = v152
			}
			var v165 uint64
			if v132 != 0 {
				v165 = v164
			} else {
				v165 = v163
			}
			var v177 uint64
			if v132 != 0 {
				v177 = v176
			} else {
				v177 = v175
			}
			var v189 uint64
			if v132 != 0 {
				v189 = v188
			} else {
				v189 = v187
			}
			var v201 uint64
			if v132 != 0 {
				v201 = v200
			} else {
				v201 = v199
			}
			var v213 uint64
			if v132 != 0 {
				v213 = v212
			} else {
				v213 = v211
			}
			var v225 uint64
			if v132 != 0 {
				v225 = v224
			} else {
				v225 = v223
			}
			var v236 uint64
			if v132 != 0 {
				v236 = v235
			} else {
				v236 = v234
			}
			var v247 uint64
			if v132 != 0 {
				v247 = v246
			} else {
				v247 = v245
			}
			var v259 uint64
			if v132 != 0 {
				v259 = v258
			} else {
				v259 = v257
			}
			var v271 uint64
			if v132 != 0 {
				v271 = v270
			} else {
				v271 = v269
			}
			var v285 uint64
			if v132 != 0 {
				v285 = v284
			} else {
				v285 = v283
			}
			var v286 uint64
			if v22 == 0x9 {
				v286 = 1
			}
			s286 = v286
			s130 = v130
			s127 = v127
			s33 = v33
			s48 = v48
			s61 = v61
			s75 = v75
			s98 = v98
			s144 = v144
			s154 = v154
			s165 = v165
			s177 = v177
			s189 = v189
			s201 = v201
			s213 = v213
			s225 = v225
			s236 = v236
			s247 = v247
			s259 = v259
			s271 = v271
			s285 = v285
			s105 = v105
		}
		if s286 != 0 {
			break
		}
		if s105 != 0 {
			if addr := uint64(v0); addr < uint64(len(m1)) {
				m1[addr] = v283
			}
		}
		v0 = s130
		v22 = s127
		v27 = s33
		v44 = s48
		v57 = s61
		v71 = s75
		v94 = s98
		v142 = s144
		v152 = s154
		v163 = s165
		v175 = s177
		v187 = s189
		v199 = s201
		v211 = s213
		v223 = s225
		v234 = s236
		v245 = s247
		v257 = s259
		v269 = s271
		v283 = s285
	}
	vals[0] = v0
	vals[22] = v22
	vals[27] = v27
	vals[44] = v44
	vals[57] = v57
	vals[71] = v71
	vals[94] = v94
	vals[142] = v142
	vals[152] = v152
	vals[163] = v163
	vals[175] = v175
	vals[187] = v187
	vals[199] = v199
	vals[211] = v211
	vals[223] = v223
	vals[234] = v234
	vals[245] = v245
	vals[257] = v257
	vals[269] = v269
	vals[283] = v283
	return n
}

func run_h264_ins(vals []uint64, mems [][]uint64, max uint64) uint64 {
	_ = vals[395]
	m0 := mems[0]
	m1 := mems[1]
	v0 := vals[0]
	v22 := vals[22]
	v27 := vals[27]
	v44 := vals[44]
	v57 := vals[57]
	v71 := vals[71]
	v94 := vals[94]
	v142 := vals[142]
	v152 := vals[152]
	v163 := vals[163]
	v175 := vals[175]
	v187 := vals[187]
	v199 := vals[199]
	v211 := vals[211]
	v223 := vals[223]
	v234 := vals[234]
	v245 := vals[245]
	v257 := vals[257]
	v269 := vals[269]
	v283 := vals[283]
	v290 := vals[290]
	v295 := vals[295]
	v300 := vals[300]
	v305 := vals[305]
	v310 := vals[310]
	v315 := vals[315]
	v319 := vals[319]
	v324 := vals[324]
	v328 := vals[328]
	v333 := vals[333]
	v338 := vals[338]
	v342 := vals[342]
	v345 := vals[345]
	v348 := vals[348]
	v351 := vals[351]
	v354 := vals[354]
	v357 := vals[357]
	v360 := vals[360]
	v363 := vals[363]
	v366 := vals[366]
	v369 := vals[369]
	v372 := vals[372]
	v375 := vals[375]
	v378 := vals[378]
	v385 := vals[385]
	v388 := vals[388]
	v393 := vals[393]
	var n uint64
	for ; n < max; n++ {
		var v2 uint64
		if addr := uint64(0x0); addr < uint64(len(m0)) {
			v2 = m0[addr] & 0x1fff
		}
		var v3 uint64
		if addr := uint64(v0); addr < uint64(len(m0)) {
			v3 = m0[addr] & 0xfffffff
		}
		v5 := v3 & 0x3
		v7 := (v3 >> 2)
		v9 := v7 & 0x3f
		v11 := (v3 >> 8)
		v13 := v11 & 0x1
		v15 := (v3 >> 9)
		v17 := v15 & 0x7
		v19 := (v3 >> 12)
		v21 := v19 & 0xffff
		v24 := (v9 >> 1)
		var v29 uint64
		if v27 != 0x0 {
			v29 = 1
		}
		v31 := (v27 - 0x1) & 0xff
		var v32 uint64
		if v29 != 0 {
			v32 = v31
		} else {
			v32 = v27
		}
		v34 := (v9 | 0x0)
		v35 := (v9 >> 2)
		v36 := (v34 - v35) & 0xff
		v38 := (0xa + v36) & 0xff
		var v42 uint64
		if v5 == 0x1 {
			v42 = 1
		}
		var v45 uint64
		if v44 != 0x0 {
			v45 = 1
		}
		v46 := (v44 - 0x1) & 0xff
		var v47 uint64
		if v45 != 0 {
			v47 = v46
		} else {
			v47 = v44
		}
		v49 := (v17 | 0x0)
		v50 := (v49 << 1) & 0xff
		v51 := (v49 + v50) & 0xff
		v53 := (0x3 + v51) & 0xff
		var v55 uint64
		if v5 == 0x2 {
			v55 = 1
		}
		var v58 uint64
		if v57 != 0x0 {
			v58 = 1
		}
		v59 := (v57 - 0x1) & 0xff
		var v60 uint64
		if v58 != 0 {
			v60 = v59
		} else {
			v60 = v57
		}
		var v63 uint64
		if v13 != 0 {
			v63 = 0x14
		} else {
			v63 = 0x0
		}
		v65 := (0x2 + v51) & 0xff
		v66 := (v65 + v63) & 0xff
		var v69 uint64
		if v57 == 0x0 {
			v69 = 1
		}
		var v72 uint64
		if v71 != 0x0 {
			v72 = 1
		}
		v73 := (v71 - 0x1) & 0xff
		var v74 uint64
		if v72 != 0 {
			v74 = v73
		} else {
			v74 = v71
		}
		var v77 uint64
		if v9 != 0x0 {
			v77 = 1
		}
		var v80 uint64
		if v77 != 0 {
			v80 = 0xc
		} else {
			v80 = 0x8
		}
		var v83 uint64
		if v44 == 0x0 {
			v83 = 1
		}
		var v87 uint64
		if v71 == 0x0 {
			v87 = 1
		}
		var v91 uint64
		if v5 == 0x0 {
			v91 = 1
		}
		var v95 uint64
		if v94 != 0x0 {
			v95 = 1
		}
		v96 := (v94 - 0x1) & 0xff
		var v97 uint64
		if v95 != 0 {
			v97 = v96
		} else {
			v97 = v94
		}
		var v99 uint64
		if v27 == 0x0 {
			v99 = 1
		}
		var v100 uint64
		if v94 == 0x0 {
			v100 = 1
		}
		var v101 uint64
		if v2 <= v0 {
			v101 = 1
		}
		var v103 uint64
		if v101 != 0 {
			v103 = 0x9
		} else {
			v103 = 0x1
		}
		var v117 uint64
		if v42 != 0 {
			v117 = 0x4
		} else {
			v117 = 0x5
		}
		var v118 uint64
		if v91 != 0 {
			v118 = 0x7
		} else {
			v118 = v117
		}
		v129 := (v0 + 0x1) & 0x1fff
		v134 := (v21 | 0x0)
		v136 := (v134 << 0) & 0xffffffffffff
		v137 := (v134 >> 0)
		v138 := (v136 | v137)
		v140 := (v138 + 0x1) & 0xffffffffffff
		v141 := (v138 * v140) & 0xffffffffffff
		v143 := (v142 + v141) & 0xffffffffffff
		v145 := (v134 << 1) & 0xffffffffffff
		v147 := (v134 >> 47)
		v148 := (v145 | v147)
		v150 := (v148 + 0x3) & 0xffffffffffff
		v151 := (v148 * v150) & 0xffffffffffff
		v153 := (v152 + v151) & 0xffffffffffff
		v155 := (v142 ^ v152)
		v156 := (v134 << 2) & 0xffffffffffff
		v158 := (v134 >> 46)
		v159 := (v156 | v158)
		v161 := (v159 + 0x5) & 0xffffffffffff
		v162 := (v159 * v161) & 0xffffffffffff
		v164 := (v163 + v162) & 0xffffffffffff
		v166 := (v155 ^ v163)
		v168 := (v134 << 3) & 0xffffffffffff
		v170 := (v134 >> 45)
		v171 := (v168 | v170)
		v173 := (v171 + 0x7) & 0xffffffffffff
		v174 := (v171 * v173) & 0xffffffffffff
		v176 := (v175 + v174) & 0xffffffffffff
		v178 := (v166 ^ v175)
		v180 := (v134 << 4) & 0xffffffffffff
		v182 := (v134 >> 44)
		v183 := (v180 | v182)
		v185 := (v183 + 0x9) & 0xffffffffffff
		v186 := (v183 * v185) & 0xffffffffffff
		v188 := (v187 + v186) & 0xffffffffffff
		v190 := (v178 ^ v187)
		v192 := (v134 << 5) & 0xffffffffffff
		v194 := (v134 >> 43)
		v195 := (v192 | v194)
		v197 := (v195 + 0xb) & 0xffffffffffff
		v198 := (v195 * v197) & 0xffffffffffff
		v200 := (v199 + v198) & 0xffffffffffff
		v202 := (v190 ^ v199)
		v204 := (v134 << 6) & 0xffffffffffff
		v206 := (v134 >> 42)
		v207 := (v204 | v206)
		v209 := (v207 + 0xd) & 0xffffffffffff
		v210 := (v207 * v209) & 0xffffffffffff
		v212 := (v211 + v210) & 0xffffffffffff
		v214 := (v202 ^ v211)
		v216 := (v134 << 7) & 0xffffffffffff
		v218 := (v134 >> 41)
		v219 := (v216 | v218)
		v221 := (v219 + 0xf) & 0xffffffffffff
		v222 := (v219 * v221) & 0xffffffffffff
		v224 := (v223 + v222) & 0xffffffffffff
		v226 := (v214 ^ v223)
		v227 := (v134 << 8) & 0xffffffffffff
		v229 := (v134 >> 40)
		v230 := (v227 | v229)
		v232 := (v230 + 0x11) & 0xffffffffffff
		v233 := (v230 * v232) & 0xffffffffffff
		v235 := (v234 + v233) & 0xffffffffffff
		v237 := (v226 ^ v234)
		v238 := (v134 << 9) & 0xffffffffffff
		v240 := (v134 >> 39)
		v241 := (v238 | v240)
		v243 := (v241 + 0x13) & 0xffffffffffff
		v244 := (v241 * v243) & 0xffffffffffff
		v246 := (v245 + v244) & 0xffffffffffff
		v248 := (v237 ^ v245)
		v250 := (v134 << 10) & 0xffffffffffff
		v252 := (v134 >> 38)
		v253 := (v250 | v252)
		v255 := (v253 + 0x15) & 0xffffffffffff
		v256 := (v253 * v255) & 0xffffffffffff
		v258 := (v257 + v256) & 0xffffffffffff
		v260 := (v248 ^ v257)
		v262 := (v134 << 11) & 0xffffffffffff
		v264 := (v134 >> 37)
		v265 := (v262 | v264)
		v267 := (v265 + 0x17) & 0xffffffffffff
		v268 := (v265 * v267) & 0xffffffffffff
		v270 := (v269 + v268) & 0xffffffffffff
		v272 := (v260 ^ v269)
		v273 := (v21 * v21) & 0xffffffff
		v274 := (v9 * v9) & 0xffffffff
		v275 := (v273 + v274) & 0xffffffff
		v276 := (v275 >> 2)
		v277 := (v275 >> 1)
		v278 := (v276 + v277) & 0xffffffff
		v279 := (v278 + v275) & 0xffffffff
		v281 := v272 & 0xffffffff
		v282 := (v279 ^ v281)
		v284 := (v283 + v282) & 0xffffffff
		v291 := (v290 + 0x1) & 0xffffff
		v296 := (v295 + 0x1) & 0xffffff
		v301 := (v300 + 0x1) & 0xffffff
		v306 := (v305 + 0x1) & 0xffffff
		v311 := (v310 + 0x1) & 0xffffff
		v316 := (v315 + 0x1) & 0xffffff
		v320 := (v319 + 0x1) & 0xffffff
		v325 := (v324 + 0x1) & 0xffffff
		v329 := (v328 + 0x1) & 0xffffff
		v334 := (v333 + 0x1) & 0xffffff
		v339 := (v338 + 0x1) & 0xffffff
		v343 := (v342 + 0x1) & 0xffffff
		v346 := (v345 + 0x1) & 0xffffff
		v349 := (v348 + v24) & 0xffffff
		v352 := (v351 + v27) & 0xffffff
		v355 := (v354 + 0x1) & 0xffffff
		v358 := (v357 + v38) & 0xffffff
		v361 := (v360 + v44) & 0xffffff
		v364 := (v363 + 0x1) & 0xffffff
		v367 := (v366 + v53) & 0xffffff
		v370 := (v369 + v57) & 0xffffff
		v373 := (v372 + 0x1) & 0xffffff
		v376 := (v375 + v66) & 0xffffff
		v379 := (v378 + v71) & 0xffffff
		v382 := ^v77 & 0x1
		v386 := (v385 + 0x1) & 0xffffff
		v389 := (v388 + 0xc) & 0xffffff
		v391 := (v388 + 0x8) & 0xffffff
		v394 := (v393 + v94) & 0xffffff
		var s33, s48, s61, s75, s98, s105, s127, s130, s144, s154, s165, s177, s189, s201, s213, s225, s236, s247, s259, s271, s285, s286, s292, s297, s302, s307, s312, s317, s321, s326, s330, s335, s340, s344, s347, s350, s353, s356, s359, s362, s365, s368, s371, s374, s377, s380, s387, s392, s395 uint64
		switch v22 {
		case 0x0:
			v33 := v32
			v43 := 0x0 & v42
			var v48 uint64
			if v43 != 0 {
				v48 = v38
			} else {
				v48 = v47
			}
			v56 := 0x0 & v55
			var v61 uint64
			if v56 != 0 {
				v61 = v53
			} else {
				v61 = v60
			}
			v70 := 0x0 & v69
			var v75 uint64
			if v70 != 0 {
				v75 = v66
			} else {
				v75 = v74
			}
			v84 := 0x0 & v83
			v88 := 0x0 & v87
			v89 := (v84 | v88)
			v92 := 0x0 & v91
			v93 := (v89 | v92)
			var v98 uint64
			if v93 != 0 {
				v98 = v80
			} else {
				v98 = v97
			}
			v130 := v0
			v144 := v142
			v154 := v152
			v165 := v163
			v177 := v175
			v189 := v187
			v201 := v199
			v213 := v211
			v225 := v223
			v236 := v234
			v247 := v245
			v259 := v257
			v271 := v269
			v285 := v283
			v292 := v291
			v297 := v295
			v302 := v300
			v307 := v305
			v312 := v310
			v317 := v315
			v321 := v319
			v326 := v324
			v330 := v328
			v335 := v333
			v340 := v338
			v344 := v342
			v347 := v345
			v350 := v348
			v353 := v351
			var v356 uint64
			if v43 != 0 {
				v356 = v355
			} else {
				v356 = v354
			}
			var v359 uint64
			if v43 != 0 {
				v359 = v358
			} else {
				v359 = v357
			}
			var v362 uint64
			if v43 != 0 {
				v362 = v361
			} else {
				v362 = v360
			}
			var v365 uint64
			if v56 != 0 {
				v365 = v364
			} else {
				v365 = v363
			}
			var v368 uint64
			if v56 != 0 {
				v368 = v367
			} else {
				v368 = v366
			}
			var v371 uint64
			if v56 != 0 {
				v371 = v370
			} else {
				v371 = v369
			}
			var v374 uint64
			if v70 != 0 {
				v374 = v373
			} else {
				v374 = v372
			}
			var v377 uint64
			if v70 != 0 {
				v377 = v376
			} else {
				v377 = v375
			}
			var v380 uint64
			if v70 != 0 {
				v380 = v379
			} else {
				v380 = v378
			}
			v381 := v93 & v77
			v383 := v93 & v382
			v384 := (v381 | v383)
			var v387 uint64
			if v384 != 0 {
				v387 = v386
			} else {
				v387 = v385
			}
			var v390 uint64
			if v381 != 0 {
				v390 = v389
			} else {
				v390 = v388
			}
			var v392 uint64
			if v383 != 0 {
				v392 = v391
			} else {
				v392 = v390
			}
			var v395 uint64
			if v384 != 0 {
				v395 = v394
			} else {
				v395 = v393
			}
			s286 = 0x0
			s130 = v130
			s127 = 0x1
			s33 = v33
			s48 = v48
			s61 = v61
			s75 = v75
			s98 = v98
			s144 = v144
			s154 = v154
			s165 = v165
			s177 = v177
			s189 = v189
			s201 = v201
			s213 = v213
			s225 = v225
			s236 = v236
			s247 = v247
			s259 = v259
			s271 = v271
			s285 = v285
			s292 = v292
			s297 = v297
			s302 = v302
			s307 = v307
			s312 = v312
			s317 = v317
			s321 = v321
			s326 = v326
			s330 = v330
			s335 = v335
			s340 = v340
			s344 = v344
			s347 = v347
			s350 = v350
			s353 = v353
			s356 = v356
			s359 = v359
			s362 = v362
			s365 = v365
			s368 = v368
			s371 = v371
			s374 = v374
			s377 = v377
			s380 = v380
			s387 = v387
			s392 = v392
			s395 = v395
			s105 = 0x0
		case 0x1:
			v33 := v24
			v43 := 0x0 & v42
			var v48 uint64
			if v43 != 0 {
				v48 = v38
			} else {
				v48 = v47
			}
			v56 := 0x0 & v55
			var v61 uint64
			if v56 != 0 {
				v61 = v53
			} else {
				v61 = v60
			}
			v70 := 0x0 & v69
			var v75 uint64
			if v70 != 0 {
				v75 = v66
			} else {
				v75 = v74
			}
			v84 := 0x0 & v83
			v88 := 0x0 & v87
			v89 := (v84 | v88)
			v92 := 0x0 & v91
			v93 := (v89 | v92)
			var v98 uint64
			if v93 != 0 {
				v98 = v80
			} else {
				v98 = v97
			}
			v130 := v0
			v144 := v142
			v154 := v152
			v165 := v163
			v177 := v175
			v189 := v187
			v201 := v199
			v213 := v211
			v225 := v223
			v236 := v234
			v247 := v245
			v259 := v257
			v271 := v269
			v285 := v283
			v292 := v290
			v297 := v296
			v302 := v300
			v307 := v305
			v312 := v310
			v317 := v315
			v321 := v319
			v326 := v324
			v330 := v328
			v335 := v333
			v340 := v338
			v344 := v342
			v347 := v346
			v350 := v349
			v353 := v352
			var v356 uint64
			if v43 != 0 {
				v356 = v355
			} else {
				v356 = v354
			}
			var v359 uint64
			if v43 != 0 {
				v359 = v358
			} else {
				v359 = v357
			}
			var v362 uint64
			if v43 != 0 {
				v362 = v361
			} else {
				v362 = v360
			}
			var v365 uint64
			if v56 != 0 {
				v365 = v364
			} else {
				v365 = v363
			}
			var v368 uint64
			if v56 != 0 {
				v368 = v367
			} else {
				v368 = v366
			}
			var v371 uint64
			if v56 != 0 {
				v371 = v370
			} else {
				v371 = v369
			}
			var v374 uint64
			if v70 != 0 {
				v374 = v373
			} else {
				v374 = v372
			}
			var v377 uint64
			if v70 != 0 {
				v377 = v376
			} else {
				v377 = v375
			}
			var v380 uint64
			if v70 != 0 {
				v380 = v379
			} else {
				v380 = v378
			}
			v381 := v93 & v77
			v383 := v93 & v382
			v384 := (v381 | v383)
			var v387 uint64
			if v384 != 0 {
				v387 = v386
			} else {
				v387 = v385
			}
			var v390 uint64
			if v381 != 0 {
				v390 = v389
			} else {
				v390 = v388
			}
			var v392 uint64
			if v383 != 0 {
				v392 = v391
			} else {
				v392 = v390
			}
			var v395 uint64
			if v384 != 0 {
				v395 = v394
			} else {
				v395 = v393
			}
			s286 = 0x0
			s130 = v130
			s127 = 0x2
			s33 = v33
			s48 = v48
			s61 = v61
			s75 = v75
			s98 = v98
			s144 = v144
			s154 = v154
			s165 = v165
			s177 = v177
			s189 = v189
			s201 = v201
			s213 = v213
			s225 = v225
			s236 = v236
			s247 = v247
			s259 = v259
			s271 = v271
			s285 = v285
			s292 = v292
			s297 = v297
			s302 = v302
			s307 = v307
			s312 = v312
			s317 = v317
			s321 = v321
			s326 = v326
			s330 = v330
			s335 = v335
			s340 = v340
			s344 = v344
			s347 = v347
			s350 = v350
			s353 = v353
			s356 = v356
			s359 = v359
			s362 = v362
			s365 = v365
			s368 = v368
			s371 = v371
			s374 = v374
			s377 = v377
			s380 = v380
			s387 = v387
			s392 = v392
			s395 = v395
			s105 = 0x0
		case 0x2:
			v33 := v32
			v43 := 0x0 & v42
			var v48 uint64
			if v43 != 0 {
				v48 = v38
			} else {
				v48 = v47
			}
			v56 := 0x0 & v55
			var v61 uint64
			if v56 != 0 {
				v61 = v53
			} else {
				v61 = v60
			}
			v70 := 0x0 & v69
			var v75 uint64
			if v70 != 0 {
				v75 = v66
			} else {
				v75 = v74
			}
			v84 := 0x0 & v83
			v88 := 0x0 & v87
			v89 := (v84 | v88)
			v92 := 0x0 & v91
			v93 := (v89 | v92)
			var v98 uint64
			if v93 != 0 {
				v98 = v80
			} else {
				v98 = v97
			}
			var v120 uint64
			if v99 != 0 {
				v120 = 0x3
			} else {
				v120 = 0x2
			}
			v123 := v120
			v124 := v123
			v127 := v124
			v130 := v0
			v144 := v142
			v154 := v152
			v165 := v163
			v177 := v175
			v189 := v187
			v201 := v199
			v213 := v211
			v225 := v223
			v236 := v234
			v247 := v245
			v259 := v257
			v271 := v269
			v285 := v283
			var v287 uint64
			if v127 == 0x1 {
				v287 = 1
			}
			v288 := 0x0 & v287
			var v292 uint64
			if v288 != 0 {
				v292 = v291
			} else {
				v292 = v290
			}
			var v293 uint64
			if v127 == 0x2 {
				v293 = 1
			}
			v294 := 0x0 & v293
			var v297 uint64
			if v294 != 0 {
				v297 = v296
			} else {
				v297 = v295
			}
			var v298 uint64
			if v127 == 0x3 {
				v298 = 1
			}
			v299 := 0x1 & v298
			var v302 uint64
			if v299 != 0 {
				v302 = v301
			} else {
				v302 = v300
			}
			var v303 uint64
			if v127 == 0x7 {
				v303 = 1
			}
			v304 := 0x0 & v303
			var v307 uint64
			if v304 != 0 {
				v307 = v306
			} else {
				v307 = v305
			}
			var v308 uint64
			if v127 == 0x4 {
				v308 = 1
			}
			v309 := 0x0 & v308
			var v312 uint64
			if v309 != 0 {
				v312 = v311
			} else {
				v312 = v310
			}
			var v313 uint64
			if v127 == 0x5 {
				v313 = 1
			}
			v314 := 0x0 & v313
			var v317 uint64
			if v314 != 0 {
				v317 = v316
			} else {
				v317 = v315
			}
			v318 := 0x0 & v303
			var v321 uint64
			if v318 != 0 {
				v321 = v320
			} else {
				v321 = v319
			}
			var v322 uint64
			if v127 == 0x6 {
				v322 = 1
			}
			v323 := 0x0 & v322
			var v326 uint64
			if v323 != 0 {
				v326 = v325
			} else {
				v326 = v324
			}
			v327 := 0x0 & v303
			var v330 uint64
			if v327 != 0 {
				v330 = v329
			} else {
				v330 = v328
			}
			var v331 uint64
			if v127 == 0x8 {
				v331 = 1
			}
			v332 := 0x0 & v331
			var v335 uint64
			if v332 != 0 {
				v335 = v334
			} else {
				v335 = v333
			}
			var v336 uint64
			if v127 == 0x9 {
				v336 = 1
			}
			v337 := 0x0 & v336
			var v340 uint64
			if v337 != 0 {
				v340 = v339
			} else {
				v340 = v338
			}
			v341 := 0x0 & v287
			var v344 uint64
			if v341 != 0 {
				v344 = v343
			} else {
				v344 = v342
			}
			v347 := v345
			v350 := v348
			v353 := v351
			var v356 uint64
			if v43 != 0 {
				v356 = v355
			} else {
				v356 = v354
			}
			var v359 uint64
			if v43 != 0 {
				v359 = v358
			} else {
				v359 = v357
			}
			var v362 uint64
			if v43 != 0 {
				v362 = v361
			} else {
				v362 = v360
			}
			var v365 uint64
			if v56 != 0 {
				v365 = v364
			} else {
				v365 = v363
			}
			var v368 uint64
			if v56 != 0 {
				v368 = v367
			} else {
				v368 = v366
			}
			var v371 uint64
			if v56 != 0 {
				v371 = v370
			} else {
				v371 = v369
			}
			var v374 uint64
			if v70 != 0 {
				v374 = v373
			} else {
				v374 = v372
			}
			var v377 uint64
			if v70 != 0 {
				v377 = v376
			} else {
				v377 = v375
			}
			var v380 uint64
			if v70 != 0 {
				v380 = v379
			} else {
				v380 = v378
			}
			v381 := v93 & v77
			v383 := v93 & v382
			v384 := (v381 | v383)
			var v387 uint64
			if v384 != 0 {
				v387 = v386
			} else {
				v387 = v385
			}
			var v390 uint64
			if v381 != 0 {
				v390 = v389
			} else {
				v390 = v388
			}
			var v392 uint64
			if v383 != 0 {
				v392 = v391
			} else {
				v392 = v390
			}
			var v395 uint64
			if v384 != 0 {
				v395 = v394
			} else {
				v395 = v393
			}
			s286 = 0x0
			s130 = v130
			s127 = v127
			s33 = v33
			s48 = v48
			s61 = v61
			s75 = v75
			s98 = v98
			s144 = v144
			s154 = v154
			s165 = v165
			s177 = v177
			s189 = v189
			s201 = v201
			s213 = v213
			s225 = v225
			s236 = v236
			s247 = v247
			s259 = v259
			s271 = v271
			s285 = v285
			s292 = v292
			s297 = v297
			s302 = v302
			s307 = v307
			s312 = v312
			s317 = v317
			s321 = v321
			s326 = v326
			s330 = v330
			s335 = v335
			s340 = v340
			s344 = v344
			s347 = v347
			s350 = v350
			s353 = v353
			s356 = v356
			s359 = v359
			s362 = v362
			s365 = v365
			s368 = v368
			s371 = v371
			s374 = v374
			s377 = v377
			s380 = v380
			s387 = v387
			s392 = v392
			s395 = v395
			s105 = 0x0
		case 0x3:
			v33 := v32
			v43 := 0x1 & v42
			var v48 uint64
			if v43 != 0 {
				v48 = v38
			} else {
				v48 = v47
			}
			v56 := 0x1 & v55
			var v61 uint64
			if v56 != 0 {
				v61 = v53
			} else {
				v61 = v60
			}
			v70 := 0x0 & v69
			var v75 uint64
			if v70 != 0 {
				v75 = v66
			} else {
				v75 = v74
			}
			v84 := 0x0 & v83
			v88 := 0x0 & v87
			v89 := (v84 | v88)
			v92 := 0x1 & v91
			v93 := (v89 | v92)
			var v98 uint64
			if v93 != 0 {
				v98 = v80
			} else {
				v98 = v97
			}
			v119 := v118
			v123 := v119
			v124 := v123
			v127 := v124
			v130 := v0
			v144 := v142
			v154 := v152
			v165 := v163
			v177 := v175
			v189 := v187
			v201 := v199
			v213 := v211
			v225 := v223
			v236 := v234
			v247 := v245
			v259 := v257
			v271 := v269
			v285 := v283
			var v287 uint64
			if v127 == 0x1 {
				v287 = 1
			}
			v288 := 0x0 & v287
			var v292 uint64
			if v288 != 0 {
				v292 = v291
			} else {
				v292 = v290
			}
			var v293 uint64
			if v127 == 0x2 {
				v293 = 1
			}
			v294 := 0x0 & v293
			var v297 uint64
			if v294 != 0 {
				v297 = v296
			} else {
				v297 = v295
			}
			var v298 uint64
			if v127 == 0x3 {
				v298 = 1
			}
			v299 := 0x0 & v298
			var v302 uint64
			if v299 != 0 {
				v302 = v301
			} else {
				v302 = v300
			}
			var v303 uint64
			if v127 == 0x7 {
				v303 = 1
			}
			v304 := 0x1 & v303
			var v307 uint64
			if v304 != 0 {
				v307 = v306
			} else {
				v307 = v305
			}
			var v308 uint64
			if v127 == 0x4 {
				v308 = 1
			}
			v309 := 0x1 & v308
			var v312 uint64
			if v309 != 0 {
				v312 = v311
			} else {
				v312 = v310
			}
			var v313 uint64
			if v127 == 0x5 {
				v313 = 1
			}
			v314 := 0x1 & v313
			var v317 uint64
			if v314 != 0 {
				v317 = v316
			} else {
				v317 = v315
			}
			v318 := 0x0 & v303
			var v321 uint64
			if v318 != 0 {
				v321 = v320
			} else {
				v321 = v319
			}
			var v322 uint64
			if v127 == 0x6 {
				v322 = 1
			}
			v323 := 0x0 & v322
			var v326 uint64
			if v323 != 0 {
				v326 = v325
			} else {
				v326 = v324
			}
			v327 := 0x0 & v303
			var v330 uint64
			if v327 != 0 {
				v330 = v329
			} else {
				v330 = v328
			}
			var v331 uint64
			if v127 == 0x8 {
				v331 = 1
			}
			v332 := 0x0 & v331
			var v335 uint64
			if v332 != 0 {
				v335 = v334
			} else {
				v335 = v333
			}
			var v336 uint64
			if v127 == 0x9 {
				v336 = 1
			}
			v337 := 0x0 & v336
			var v340 uint64
			if v337 != 0 {
				v340 = v339
			} else {
				v340 = v338
			}
			v341 := 0x0 & v287
			var v344 uint64
			if v341 != 0 {
				v344 = v343
			} else {
				v344 = v342
			}
			v347 := v345
			v350 := v348
			v353 := v351
			var v356 uint64
			if v43 != 0 {
				v356 = v355
			} else {
				v356 = v354
			}
			var v359 uint64
			if v43 != 0 {
				v359 = v358
			} else {
				v359 = v357
			}
			var v362 uint64
			if v43 != 0 {
				v362 = v361
			} else {
				v362 = v360
			}
			var v365 uint64
			if v56 != 0 {
				v365 = v364
			} else {
				v365 = v363
			}
			var v368 uint64
			if v56 != 0 {
				v368 = v367
			} else {
				v368 = v366
			}
			var v371 uint64
			if v56 != 0 {
				v371 = v370
			} else {
				v371 = v369
			}
			var v374 uint64
			if v70 != 0 {
				v374 = v373
			} else {
				v374 = v372
			}
			var v377 uint64
			if v70 != 0 {
				v377 = v376
			} else {
				v377 = v375
			}
			var v380 uint64
			if v70 != 0 {
				v380 = v379
			} else {
				v380 = v378
			}
			v381 := v93 & v77
			v383 := v93 & v382
			v384 := (v381 | v383)
			var v387 uint64
			if v384 != 0 {
				v387 = v386
			} else {
				v387 = v385
			}
			var v390 uint64
			if v381 != 0 {
				v390 = v389
			} else {
				v390 = v388
			}
			var v392 uint64
			if v383 != 0 {
				v392 = v391
			} else {
				v392 = v390
			}
			var v395 uint64
			if v384 != 0 {
				v395 = v394
			} else {
				v395 = v393
			}
			s286 = 0x0
			s130 = v130
			s127 = v127
			s33 = v33
			s48 = v48
			s61 = v61
			s75 = v75
			s98 = v98
			s144 = v144
			s154 = v154
			s165 = v165
			s177 = v177
			s189 = v189
			s201 = v201
			s213 = v213
			s225 = v225
			s236 = v236
			s247 = v247
			s259 = v259
			s271 = v271
			s285 = v285
			s292 = v292
			s297 = v297
			s302 = v302
			s307 = v307
			s312 = v312
			s317 = v317
			s321 = v321
			s326 = v326
			s330 = v330
			s335 = v335
			s340 = v340
			s344 = v344
			s347 = v347
			s350 = v350
			s353 = v353
			s356 = v356
			s359 = v359
			s362 = v362
			s365 = v365
			s368 = v368
			s371 = v371
			s374 = v374
			s377 = v377
			s380 = v380
			s387 = v387
			s392 = v392
			s395 = v395
			s105 = 0x0
		case 0x4:
			v33 := v32
			v43 := 0x0 & v42
			var v48 uint64
			if v43 != 0 {
				v48 = v38
			} else {
				v48 = v47
			}
			v56 := 0x0 & v55
			var v61 uint64
			if v56 != 0 {
				v61 = v53
			} else {
				v61 = v60
			}
			v70 := 0x0 & v69
			var v75 uint64
			if v70 != 0 {
				v75 = v66
			} else {
				v75 = v74
			}
			v84 := 0x1 & v83
			v88 := 0x0 & v87
			v89 := (v84 | v88)
			v92 := 0x0 & v91
			v93 := (v89 | v92)
			var v98 uint64
			if v93 != 0 {
				v98 = v80
			} else {
				v98 = v97
			}
			var v115 uint64
			if v83 != 0 {
				v115 = 0x7
			} else {
				v115 = 0x4
			}
			v116 := v115
			v119 := v116
			v123 := v119
			v124 := v123
			v127 := v124
			v130 := v0
			v144 := v143
			v154 := v153
			v165 := v164
			v177 := v176
			v189 := v188
			v201 := v200
			v213 := v212
			v225 := v224
			v236 := v235
			v247 := v246
			v259 := v258
			v271 := v270
			v285 := v284
			var v287 uint64
			if v127 == 0x1 {
				v287 = 1
			}
			v288 := 0x0 & v287
			var v292 uint64
			if v288 != 0 {
				v292 = v291
			} else {
				v292 = v290
			}
			var v293 uint64
			if v127 == 0x2 {
				v293 = 1
			}
			v294 := 0x0 & v293
			var v297 uint64
			if v294 != 0 {
				v297 = v296
			} else {
				v297 = v295
			}
			var v298 uint64
			if v127 == 0x3 {
				v298 = 1
			}
			v299 := 0x0 & v298
			var v302 uint64
			if v299 != 0 {
				v302 = v301
			} else {
				v302 = v300
			}
			var v303 uint64
			if v127 == 0x7 {
				v303 = 1
			}
			v304 := 0x0 & v303
			var v307 uint64
			if v304 != 0 {
				v307 = v306
			} else {
				v307 = v305
			}
			var v308 uint64
			if v127 == 0x4 {
				v308 = 1
			}
			v309 := 0x0 & v308
			var v312 uint64
			if v309 != 0 {
				v312 = v311
			} else {
				v312 = v310
			}
			var v313 uint64
			if v127 == 0x5 {
				v313 = 1
			}
			v314 := 0x0 & v313
			var v317 uint64
			if v314 != 0 {
				v317 = v316
			} else {
				v317 = v315
			}
			v318 := 0x1 & v303
			var v321 uint64
			if v318 != 0 {
				v321 = v320
			} else {
				v321 = v319
			}
			var v322 uint64
			if v127 == 0x6 {
				v322 = 1
			}
			v323 := 0x0 & v322
			var v326 uint64
			if v323 != 0 {
				v326 = v325
			} else {
				v326 = v324
			}
			v327 := 0x0 & v303
			var v330 uint64
			if v327 != 0 {
				v330 = v329
			} else {
				v330 = v328
			}
			var v331 uint64
			if v127 == 0x8 {
				v331 = 1
			}
			v332 := 0x0 & v331
			var v335 uint64
			if v332 != 0 {
				v335 = v334
			} else {
				v335 = v333
			}
			var v336 uint64
			if v127 == 0x9 {
				v336 = 1
			}
			v337 := 0x0 & v336
			var v340 uint64
			if v337 != 0 {
				v340 = v339
			} else {
				v340 = v338
			}
			v341 := 0x0 & v287
			var v344 uint64
			if v341 != 0 {
				v344 = v343
			} else {
				v344 = v342
			}
			v347 := v345
			v350 := v348
			v353 := v351
			var v356 uint64
			if v43 != 0 {
				v356 = v355
			} else {
				v356 = v354
			}
			var v359 uint64
			if v43 != 0 {
				v359 = v358
			} else {
				v359 = v357
			}
			var v362 uint64
			if v43 != 0 {
				v362 = v361
			} else {
				v362 = v360
			}
			var v365 uint64
			if v56 != 0 {
				v365 = v364
			} else {
				v365 = v363
			}
			var v368 uint64
			if v56 != 0 {
				v368 = v367
			} else {
				v368 = v366
			}
			var v371 uint64
			if v56 != 0 {
				v371 = v370
			} else {
				v371 = v369
			}
			var v374 uint64
			if v70 != 0 {
				v374 = v373
			} else {
				v374 = v372
			}
			var v377 uint64
			if v70 != 0 {
				v377 = v376
			} else {
				v377 = v375
			}
			var v380 uint64
			if v70 != 0 {
				v380 = v379
			} else {
				v380 = v378
			}
			v381 := v93 & v77
			v383 := v93 & v382
			v384 := (v381 | v383)
			var v387 uint64
			if v384 != 0 {
				v387 = v386
			} else {
				v387 = v385
			}
			var v390 uint64
			if v381 != 0 {
				v390 = v389
			} else {
				v390 = v388
			}
			var v392 uint64
			if v383 != 0 {
				v392 = v391
			} else {
				v392 = v390
			}
			var v395 uint64
			if v384 != 0 {
				v395 = v394
			} else {
				v395 = v393
			}
			s286 = 0x0
			s130 = v130
			s127 = v127
			s33 = v33
			s48 = v48
			s61 = v61
			s75 = v75
			s98 = v98
			s144 = v144
			s154 = v154
			s165 = v165
			s177 = v177
			s189 = v189
			s201 = v201
			s213 = v213
			s225 = v225
			s236 = v236
			s247 = v247
			s259 = v259
			s271 = v271
			s285 = v285
			s292 = v292
			s297 = v297
			s302 = v302
			s307 = v307
			s312 = v312
			s317 = v317
			s321 = v321
			s326 = v326
			s330 = v330
			s335 = v335
			s340 = v340
			s344 = v344
			s347 = v347
			s350 = v350
			s353 = v353
			s356 = v356
			s359 = v359
			s362 = v362
			s365 = v365
			s368 = v368
			s371 = v371
			s374 = v374
			s377 = v377
			s380 = v380
			s387 = v387
			s392 = v392
			s395 = v395
			s105 = 0x0
		case 0x5:
			v33 := v32
			v43 := 0x0 & v42
			var v48 uint64
			if v43 != 0 {
				v48 = v38
			} else {
				v48 = v47
			}
			v56 := 0x0 & v55
			var v61 uint64
			if v56 != 0 {
				v61 = v53
			} else {
				v61 = v60
			}
			v70 := 0x1 & v69
			var v75 uint64
			if v70 != 0 {
				v75 = v66
			} else {
				v75 = v74
			}
			v84 := 0x0 & v83
			v88 := 0x0 & v87
			v89 := (v84 | v88)
			v92 := 0x0 & v91
			v93 := (v89 | v92)
			var v98 uint64
			if v93 != 0 {
				v98 = v80
			} else {
				v98 = v97
			}
			var v113 uint64
			if v69 != 0 {
				v113 = 0x6
			} else {
				v113 = 0x5
			}
			v114 := v113
			v116 := v114
			v119 := v116
			v123 := v119
			v124 := v123
			v127 := v124
			v130 := v0
			v144 := v142
			v154 := v152
			v165 := v163
			v177 := v175
			v189 := v187
			v201 := v199
			v213 := v211
			v225 := v223
			v236 := v234
			v247 := v245
			v259 := v257
			v271 := v269
			v285 := v283
			var v287 uint64
			if v127 == 0x1 {
				v287 = 1
			}
			v288 := 0x0 & v287
			var v292 uint64
			if v288 != 0 {
				v292 = v291
			} else {
				v292 = v290
			}
			var v293 uint64
			if v127 == 0x2 {
				v293 = 1
			}
			v294 := 0x0 & v293
			var v297 uint64
			if v294 != 0 {
				v297 = v296
			} else {
				v297 = v295
			}
			var v298 uint64
			if v127 == 0x3 {
				v298 = 1
			}
			v299 := 0x0 & v298
			var v302 uint64
			if v299 != 0 {
				v302 = v301
			} else {
				v302 = v300
			}
			var v303 uint64
			if v127 == 0x7 {
				v303 = 1
			}
			v304 := 0x0 & v303
			var v307 uint64
			if v304 != 0 {
				v307 = v306
			} else {
				v307 = v305
			}
			var v308 uint64
			if v127 == 0x4 {
				v308 = 1
			}
			v309 := 0x0 & v308
			var v312 uint64
			if v309 != 0 {
				v312 = v311
			} else {
				v312 = v310
			}
			var v313 uint64
			if v127 == 0x5 {
				v313 = 1
			}
			v314 := 0x0 & v313
			var v317 uint64
			if v314 != 0 {
				v317 = v316
			} else {
				v317 = v315
			}
			v318 := 0x0 & v303
			var v321 uint64
			if v318 != 0 {
				v321 = v320
			} else {
				v321 = v319
			}
			var v322 uint64
			if v127 == 0x6 {
				v322 = 1
			}
			v323 := 0x1 & v322
			var v326 uint64
			if v323 != 0 {
				v326 = v325
			} else {
				v326 = v324
			}
			v327 := 0x0 & v303
			var v330 uint64
			if v327 != 0 {
				v330 = v329
			} else {
				v330 = v328
			}
			var v331 uint64
			if v127 == 0x8 {
				v331 = 1
			}
			v332 := 0x0 & v331
			var v335 uint64
			if v332 != 0 {
				v335 = v334
			} else {
				v335 = v333
			}
			var v336 uint64
			if v127 == 0x9 {
				v336 = 1
			}
			v337 := 0x0 & v336
			var v340 uint64
			if v337 != 0 {
				v340 = v339
			} else {
				v340 = v338
			}
			v341 := 0x0 & v287
			var v344 uint64
			if v341 != 0 {
				v344 = v343
			} else {
				v344 = v342
			}
			v347 := v345
			v350 := v348
			v353 := v351
			var v356 uint64
			if v43 != 0 {
				v356 = v355
			} else {
				v356 = v354
			}
			var v359 uint64
			if v43 != 0 {
				v359 = v358
			} else {
				v359 = v357
			}
			var v362 uint64
			if v43 != 0 {
				v362 = v361
			} else {
				v362 = v360
			}
			var v365 uint64
			if v56 != 0 {
				v365 = v364
			} else {
				v365 = v363
			}
			var v368 uint64
			if v56 != 0 {
				v368 = v367
			} else {
				v368 = v366
			}
			var v371 uint64
			if v56 != 0 {
				v371 = v370
			} else {
				v371 = v369
			}
			var v374 uint64
			if v70 != 0 {
				v374 = v373
			} else {
				v374 = v372
			}
			var v377 uint64
			if v70 != 0 {
				v377 = v376
			} else {
				v377 = v375
			}
			var v380 uint64
			if v70 != 0 {
				v380 = v379
			} else {
				v380 = v378
			}
			v381 := v93 & v77
			v383 := v93 & v382
			v384 := (v381 | v383)
			var v387 uint64
			if v384 != 0 {
				v387 = v386
			} else {
				v387 = v385
			}
			var v390 uint64
			if v381 != 0 {
				v390 = v389
			} else {
				v390 = v388
			}
			var v392 uint64
			if v383 != 0 {
				v392 = v391
			} else {
				v392 = v390
			}
			var v395 uint64
			if v384 != 0 {
				v395 = v394
			} else {
				v395 = v393
			}
			s286 = 0x0
			s130 = v130
			s127 = v127
			s33 = v33
			s48 = v48
			s61 = v61
			s75 = v75
			s98 = v98
			s144 = v144
			s154 = v154
			s165 = v165
			s177 = v177
			s189 = v189
			s201 = v201
			s213 = v213
			s225 = v225
			s236 = v236
			s247 = v247
			s259 = v259
			s271 = v271
			s285 = v285
			s292 = v292
			s297 = v297
			s302 = v302
			s307 = v307
			s312 = v312
			s317 = v317
			s321 = v321
			s326 = v326
			s330 = v330
			s335 = v335
			s340 = v340
			s344 = v344
			s347 = v347
			s350 = v350
			s353 = v353
			s356 = v356
			s359 = v359
			s362 = v362
			s365 = v365
			s368 = v368
			s371 = v371
			s374 = v374
			s377 = v377
			s380 = v380
			s387 = v387
			s392 = v392
			s395 = v395
			s105 = 0x0
		case 0x6:
			v33 := v32
			v43 := 0x0 & v42
			var v48 uint64
			if v43 != 0 {
				v48 = v38
			} else {
				v48 = v47
			}
			v56 := 0x0 & v55
			var v61 uint64
			if v56 != 0 {
				v61 = v53
			} else {
				v61 = v60
			}
			v70 := 0x0 & v69
			var v75 uint64
			if v70 != 0 {
				v75 = v66
			} else {
				v75 = v74
			}
			v84 := 0x0 & v83
			v88 := 0x1 & v87
			v89 := (v84 | v88)
			v92 := 0x0 & v91
			v93 := (v89 | v92)
			var v98 uint64
			if v93 != 0 {
				v98 = v80
			} else {
				v98 = v97
			}
			var v111 uint64
			if v87 != 0 {
				v111 = 0x7
			} else {
				v111 = 0x6
			}
			v112 := v111
			v114 := v112
			v116 := v114
			v119 := v116
			v123 := v119
			v124 := v123
			v127 := v124
			v130 := v0
			v144 := v143
			v154 := v153
			v165 := v164
			v177 := v176
			v189 := v188
			v201 := v200
			v213 := v212
			v225 := v224
			v236 := v235
			v247 := v246
			v259 := v258
			v271 := v270
			v285 := v284
			var v287 uint64
			if v127 == 0x1 {
				v287 = 1
			}
			v288 := 0x0 & v287
			var v292 uint64
			if v288 != 0 {
				v292 = v291
			} else {
				v292 = v290
			}
			var v293 uint64
			if v127 == 0x2 {
				v293 = 1
			}
			v294 := 0x0 & v293
			var v297 uint64
			if v294 != 0 {
				v297 = v296
			} else {
				v297 = v295
			}
			var v298 uint64
			if v127 == 0x3 {
				v298 = 1
			}
			v299 := 0x0 & v298
			var v302 uint64
			if v299 != 0 {
				v302 = v301
			} else {
				v302 = v300
			}
			var v303 uint64
			if v127 == 0x7 {
				v303 = 1
			}
			v304 := 0x0 & v303
			var v307 uint64
			if v304 != 0 {
				v307 = v306
			} else {
				v307 = v305
			}
			var v308 uint64
			if v127 == 0x4 {
				v308 = 1
			}
			v309 := 0x0 & v308
			var v312 uint64
			if v309 != 0 {
				v312 = v311
			} else {
				v312 = v310
			}
			var v313 uint64
			if v127 == 0x5 {
				v313 = 1
			}
			v314 := 0x0 & v313
			var v317 uint64
			if v314 != 0 {
				v317 = v316
			} else {
				v317 = v315
			}
			v318 := 0x0 & v303
			var v321 uint64
			if v318 != 0 {
				v321 = v320
			} else {
				v321 = v319
			}
			var v322 uint64
			if v127 == 0x6 {
				v322 = 1
			}
			v323 := 0x0 & v322
			var v326 uint64
			if v323 != 0 {
				v326 = v325
			} else {
				v326 = v324
			}
			v327 := 0x1 & v303
			var v330 uint64
			if v327 != 0 {
				v330 = v329
			} else {
				v330 = v328
			}
			var v331 uint64
			if v127 == 0x8 {
				v331 = 1
			}
			v332 := 0x0 & v331
			var v335 uint64
			if v332 != 0 {
				v335 = v334
			} else {
				v335 = v333
			}
			var v336 uint64
			if v127 == 0x9 {
				v336 = 1
			}
			v337 := 0x0 & v336
			var v340 uint64
			if v337 != 0 {
				v340 = v339
			} else {
				v340 = v338
			}
			v341 := 0x0 & v287
			var v344 uint64
			if v341 != 0 {
				v344 = v343
			} else {
				v344 = v342
			}
			v347 := v345
			v350 := v348
			v353 := v351
			var v356 uint64
			if v43 != 0 {
				v356 = v355
			} else {
				v356 = v354
			}
			var v359 uint64
			if v43 != 0 {
				v359 = v358
			} else {
				v359 = v357
			}
			var v362 uint64
			if v43 != 0 {
				v362 = v361
			} else {
				v362 = v360
			}
			var v365 uint64
			if v56 != 0 {
				v365 = v364
			} else {
				v365 = v363
			}
			var v368 uint64
			if v56 != 0 {
				v368 = v367
			} else {
				v368 = v366
			}
			var v371 uint64
			if v56 != 0 {
				v371 = v370
			} else {
				v371 = v369
			}
			var v374 uint64
			if v70 != 0 {
				v374 = v373
			} else {
				v374 = v372
			}
			var v377 uint64
			if v70 != 0 {
				v377 = v376
			} else {
				v377 = v375
			}
			var v380 uint64
			if v70 != 0 {
				v380 = v379
			} else {
				v380 = v378
			}
			v381 := v93 & v77
			v383 := v93 & v382
			v384 := (v381 | v383)
			var v387 uint64
			if v384 != 0 {
				v387 = v386
			} else {
				v387 = v385
			}
			var v390 uint64
			if v381 != 0 {
				v390 = v389
			} else {
				v390 = v388
			}
			var v392 uint64
			if v383 != 0 {
				v392 = v391
			} else {
				v392 = v390
			}
			var v395 uint64
			if v384 != 0 {
				v395 = v394
			} else {
				v395 = v393
			}
			s286 = 0x0
			s130 = v130
			s127 = v127
			s33 = v33
			s48 = v48
			s61 = v61
			s75 = v75
			s98 = v98
			s144 = v144
			s154 = v154
			s165 = v165
			s177 = v177
			s189 = v189
			s201 = v201
			s213 = v213
			s225 = v225
			s236 = v236
			s247 = v247
			s259 = v259
			s271 = v271
			s285 = v285
			s292 = v292
			s297 = v297
			s302 = v302
			s307 = v307
			s312 = v312
			s317 = v317
			s321 = v321
			s326 = v326
			s330 = v330
			s335 = v335
			s340 = v340
			s344 = v344
			s347 = v347
			s350 = v350
			s353 = v353
			s356 = v356
			s359 = v359
			s362 = v362
			s365 = v365
			s368 = v368
			s371 = v371
			s374 = v374
			s377 = v377
			s380 = v380
			s387 = v387
			s392 = v392
			s395 = v395
			s105 = 0x0
		case 0x7:
			v33 := v32
			v43 := 0x0 & v42
			var v48 uint64
			if v43 != 0 {
				v48 = v38
			} else {
				v48 = v47
			}
			v56 := 0x0 & v55
			var v61 uint64
			if v56 != 0 {
				v61 = v53
			} else {
				v61 = v60
			}
			v70 := 0x0 & v69
			var v75 uint64
			if v70 != 0 {
				v75 = v66
			} else {
				v75 = v74
			}
			v84 := 0x0 & v83
			v88 := 0x0 & v87
			v89 := (v84 | v88)
			v92 := 0x0 & v91
			v93 := (v89 | v92)
			var v98 uint64
			if v93 != 0 {
				v98 = v80
			} else {
				v98 = v97
			}
			var v107 uint64
			if v100 != 0 {
				v107 = 0x8
			} else {
				v107 = 0x7
			}
			v110 := v107
			v112 := v110
			v114 := v112
			v116 := v114
			v119 := v116
			v123 := v119
			v124 := v123
			v127 := v124
			v130 := v0
			v144 := v143
			v154 := v153
			v165 := v164
			v177 := v176
			v189 := v188
			v201 := v200
			v213 := v212
			v225 := v224
			v236 := v235
			v247 := v246
			v259 := v258
			v271 := v270
			v285 := v284
			var v287 uint64
			if v127 == 0x1 {
				v287 = 1
			}
			v288 := 0x0 & v287
			var v292 uint64
			if v288 != 0 {
				v292 = v291
			} else {
				v292 = v290
			}
			var v293 uint64
			if v127 == 0x2 {
				v293 = 1
			}
			v294 := 0x0 & v293
			var v297 uint64
			if v294 != 0 {
				v297 = v296
			} else {
				v297 = v295
			}
			var v298 uint64
			if v127 == 0x3 {
				v298 = 1
			}
			v299 := 0x0 & v298
			var v302 uint64
			if v299 != 0 {
				v302 = v301
			} else {
				v302 = v300
			}
			var v303 uint64
			if v127 == 0x7 {
				v303 = 1
			}
			v304 := 0x0 & v303
			var v307 uint64
			if v304 != 0 {
				v307 = v306
			} else {
				v307 = v305
			}
			var v308 uint64
			if v127 == 0x4 {
				v308 = 1
			}
			v309 := 0x0 & v308
			var v312 uint64
			if v309 != 0 {
				v312 = v311
			} else {
				v312 = v310
			}
			var v313 uint64
			if v127 == 0x5 {
				v313 = 1
			}
			v314 := 0x0 & v313
			var v317 uint64
			if v314 != 0 {
				v317 = v316
			} else {
				v317 = v315
			}
			v318 := 0x0 & v303
			var v321 uint64
			if v318 != 0 {
				v321 = v320
			} else {
				v321 = v319
			}
			var v322 uint64
			if v127 == 0x6 {
				v322 = 1
			}
			v323 := 0x0 & v322
			var v326 uint64
			if v323 != 0 {
				v326 = v325
			} else {
				v326 = v324
			}
			v327 := 0x0 & v303
			var v330 uint64
			if v327 != 0 {
				v330 = v329
			} else {
				v330 = v328
			}
			var v331 uint64
			if v127 == 0x8 {
				v331 = 1
			}
			v332 := 0x1 & v331
			var v335 uint64
			if v332 != 0 {
				v335 = v334
			} else {
				v335 = v333
			}
			var v336 uint64
			if v127 == 0x9 {
				v336 = 1
			}
			v337 := 0x0 & v336
			var v340 uint64
			if v337 != 0 {
				v340 = v339
			} else {
				v340 = v338
			}
			v341 := 0x0 & v287
			var v344 uint64
			if v341 != 0 {
				v344 = v343
			} else {
				v344 = v342
			}
			v347 := v345
			v350 := v348
			v353 := v351
			var v356 uint64
			if v43 != 0 {
				v356 = v355
			} else {
				v356 = v354
			}
			var v359 uint64
			if v43 != 0 {
				v359 = v358
			} else {
				v359 = v357
			}
			var v362 uint64
			if v43 != 0 {
				v362 = v361
			} else {
				v362 = v360
			}
			var v365 uint64
			if v56 != 0 {
				v365 = v364
			} else {
				v365 = v363
			}
			var v368 uint64
			if v56 != 0 {
				v368 = v367
			} else {
				v368 = v366
			}
			var v371 uint64
			if v56 != 0 {
				v371 = v370
			} else {
				v371 = v369
			}
			var v374 uint64
			if v70 != 0 {
				v374 = v373
			} else {
				v374 = v372
			}
			var v377 uint64
			if v70 != 0 {
				v377 = v376
			} else {
				v377 = v375
			}
			var v380 uint64
			if v70 != 0 {
				v380 = v379
			} else {
				v380 = v378
			}
			v381 := v93 & v77
			v383 := v93 & v382
			v384 := (v381 | v383)
			var v387 uint64
			if v384 != 0 {
				v387 = v386
			} else {
				v387 = v385
			}
			var v390 uint64
			if v381 != 0 {
				v390 = v389
			} else {
				v390 = v388
			}
			var v392 uint64
			if v383 != 0 {
				v392 = v391
			} else {
				v392 = v390
			}
			var v395 uint64
			if v384 != 0 {
				v395 = v394
			} else {
				v395 = v393
			}
			s286 = 0x0
			s130 = v130
			s127 = v127
			s33 = v33
			s48 = v48
			s61 = v61
			s75 = v75
			s98 = v98
			s144 = v144
			s154 = v154
			s165 = v165
			s177 = v177
			s189 = v189
			s201 = v201
			s213 = v213
			s225 = v225
			s236 = v236
			s247 = v247
			s259 = v259
			s271 = v271
			s285 = v285
			s292 = v292
			s297 = v297
			s302 = v302
			s307 = v307
			s312 = v312
			s317 = v317
			s321 = v321
			s326 = v326
			s330 = v330
			s335 = v335
			s340 = v340
			s344 = v344
			s347 = v347
			s350 = v350
			s353 = v353
			s356 = v356
			s359 = v359
			s362 = v362
			s365 = v365
			s368 = v368
			s371 = v371
			s374 = v374
			s377 = v377
			s380 = v380
			s387 = v387
			s392 = v392
			s395 = v395
			s105 = 0x0
		case 0x8:
			v33 := v32
			v43 := 0x0 & v42
			var v48 uint64
			if v43 != 0 {
				v48 = v38
			} else {
				v48 = v47
			}
			v56 := 0x0 & v55
			var v61 uint64
			if v56 != 0 {
				v61 = v53
			} else {
				v61 = v60
			}
			v70 := 0x0 & v69
			var v75 uint64
			if v70 != 0 {
				v75 = v66
			} else {
				v75 = v74
			}
			v84 := 0x0 & v83
			v88 := 0x0 & v87
			v89 := (v84 | v88)
			v92 := 0x0 & v91
			v93 := (v89 | v92)
			var v98 uint64
			if v93 != 0 {
				v98 = v80
			} else {
				v98 = v97
			}
			v106 := v103
			v110 := v106
			v112 := v110
			v114 := v112
			v116 := v114
			v119 := v116
			v123 := v119
			v124 := v123
			v127 := v124
			v130 := v129
			v144 := v142
			v154 := v152
			v165 := v163
			v177 := v175
			v189 := v187
			v201 := v199
			v213 := v211
			v225 := v223
			v236 := v234
			v247 := v245
			v259 := v257
			v271 := v269
			v285 := v283
			var v287 uint64
			if v127 == 0x1 {
				v287 = 1
			}
			v288 := 0x0 & v287
			var v292 uint64
			if v288 != 0 {
				v292 = v291
			} else {
				v292 = v290
			}
			var v293 uint64
			if v127 == 0x2 {
				v293 = 1
			}
			v294 := 0x0 & v293
			var v297 uint64
			if v294 != 0 {
				v297 = v296
			} else {
				v297 = v295
			}
			var v298 uint64
			if v127 == 0x3 {
				v298 = 1
			}
			v299 := 0x0 & v298
			var v302 uint64
			if v299 != 0 {
				v302 = v301
			} else {
				v302 = v300
			}
			var v303 uint64
			if v127 == 0x7 {
				v303 = 1
			}
			v304 := 0x0 & v303
			var v307 uint64
			if v304 != 0 {
				v307 = v306
			} else {
				v307 = v305
			}
			var v308 uint64
			if v127 == 0x4 {
				v308 = 1
			}
			v309 := 0x0 & v308
			var v312 uint64
			if v309 != 0 {
				v312 = v311
			} else {
				v312 = v310
			}
			var v313 uint64
			if v127 == 0x5 {
				v313 = 1
			}
			v314 := 0x0 & v313
			var v317 uint64
			if v314 != 0 {
				v317 = v316
			} else {
				v317 = v315
			}
			v318 := 0x0 & v303
			var v321 uint64
			if v318 != 0 {
				v321 = v320
			} else {
				v321 = v319
			}
			var v322 uint64
			if v127 == 0x6 {
				v322 = 1
			}
			v323 := 0x0 & v322
			var v326 uint64
			if v323 != 0 {
				v326 = v325
			} else {
				v326 = v324
			}
			v327 := 0x0 & v303
			var v330 uint64
			if v327 != 0 {
				v330 = v329
			} else {
				v330 = v328
			}
			var v331 uint64
			if v127 == 0x8 {
				v331 = 1
			}
			v332 := 0x0 & v331
			var v335 uint64
			if v332 != 0 {
				v335 = v334
			} else {
				v335 = v333
			}
			var v336 uint64
			if v127 == 0x9 {
				v336 = 1
			}
			v337 := 0x1 & v336
			var v340 uint64
			if v337 != 0 {
				v340 = v339
			} else {
				v340 = v338
			}
			v341 := 0x1 & v287
			var v344 uint64
			if v341 != 0 {
				v344 = v343
			} else {
				v344 = v342
			}
			v347 := v345
			v350 := v348
			v353 := v351
			var v356 uint64
			if v43 != 0 {
				v356 = v355
			} else {
				v356 = v354
			}
			var v359 uint64
			if v43 != 0 {
				v359 = v358
			} else {
				v359 = v357
			}
			var v362 uint64
			if v43 != 0 {
				v362 = v361
			} else {
				v362 = v360
			}
			var v365 uint64
			if v56 != 0 {
				v365 = v364
			} else {
				v365 = v363
			}
			var v368 uint64
			if v56 != 0 {
				v368 = v367
			} else {
				v368 = v366
			}
			var v371 uint64
			if v56 != 0 {
				v371 = v370
			} else {
				v371 = v369
			}
			var v374 uint64
			if v70 != 0 {
				v374 = v373
			} else {
				v374 = v372
			}
			var v377 uint64
			if v70 != 0 {
				v377 = v376
			} else {
				v377 = v375
			}
			var v380 uint64
			if v70 != 0 {
				v380 = v379
			} else {
				v380 = v378
			}
			v381 := v93 & v77
			v383 := v93 & v382
			v384 := (v381 | v383)
			var v387 uint64
			if v384 != 0 {
				v387 = v386
			} else {
				v387 = v385
			}
			var v390 uint64
			if v381 != 0 {
				v390 = v389
			} else {
				v390 = v388
			}
			var v392 uint64
			if v383 != 0 {
				v392 = v391
			} else {
				v392 = v390
			}
			var v395 uint64
			if v384 != 0 {
				v395 = v394
			} else {
				v395 = v393
			}
			s286 = 0x0
			s130 = v130
			s127 = v127
			s33 = v33
			s48 = v48
			s61 = v61
			s75 = v75
			s98 = v98
			s144 = v144
			s154 = v154
			s165 = v165
			s177 = v177
			s189 = v189
			s201 = v201
			s213 = v213
			s225 = v225
			s236 = v236
			s247 = v247
			s259 = v259
			s271 = v271
			s285 = v285
			s292 = v292
			s297 = v297
			s302 = v302
			s307 = v307
			s312 = v312
			s317 = v317
			s321 = v321
			s326 = v326
			s330 = v330
			s335 = v335
			s340 = v340
			s344 = v344
			s347 = v347
			s350 = v350
			s353 = v353
			s356 = v356
			s359 = v359
			s362 = v362
			s365 = v365
			s368 = v368
			s371 = v371
			s374 = v374
			s377 = v377
			s380 = v380
			s387 = v387
			s392 = v392
			s395 = v395
			s105 = 0x1
		case 0x9:
			v33 := v32
			v43 := 0x0 & v42
			var v48 uint64
			if v43 != 0 {
				v48 = v38
			} else {
				v48 = v47
			}
			v56 := 0x0 & v55
			var v61 uint64
			if v56 != 0 {
				v61 = v53
			} else {
				v61 = v60
			}
			v70 := 0x0 & v69
			var v75 uint64
			if v70 != 0 {
				v75 = v66
			} else {
				v75 = v74
			}
			v84 := 0x0 & v83
			v88 := 0x0 & v87
			v89 := (v84 | v88)
			v92 := 0x0 & v91
			v93 := (v89 | v92)
			var v98 uint64
			if v93 != 0 {
				v98 = v80
			} else {
				v98 = v97
			}
			v130 := v0
			v144 := v142
			v154 := v152
			v165 := v163
			v177 := v175
			v189 := v187
			v201 := v199
			v213 := v211
			v225 := v223
			v236 := v234
			v247 := v245
			v259 := v257
			v271 := v269
			v285 := v283
			v292 := v290
			v297 := v295
			v302 := v300
			v307 := v305
			v312 := v310
			v317 := v315
			v321 := v319
			v326 := v324
			v330 := v328
			v335 := v333
			v340 := v338
			v344 := v342
			v347 := v345
			v350 := v348
			v353 := v351
			var v356 uint64
			if v43 != 0 {
				v356 = v355
			} else {
				v356 = v354
			}
			var v359 uint64
			if v43 != 0 {
				v359 = v358
			} else {
				v359 = v357
			}
			var v362 uint64
			if v43 != 0 {
				v362 = v361
			} else {
				v362 = v360
			}
			var v365 uint64
			if v56 != 0 {
				v365 = v364
			} else {
				v365 = v363
			}
			var v368 uint64
			if v56 != 0 {
				v368 = v367
			} else {
				v368 = v366
			}
			var v371 uint64
			if v56 != 0 {
				v371 = v370
			} else {
				v371 = v369
			}
			var v374 uint64
			if v70 != 0 {
				v374 = v373
			} else {
				v374 = v372
			}
			var v377 uint64
			if v70 != 0 {
				v377 = v376
			} else {
				v377 = v375
			}
			var v380 uint64
			if v70 != 0 {
				v380 = v379
			} else {
				v380 = v378
			}
			v381 := v93 & v77
			v383 := v93 & v382
			v384 := (v381 | v383)
			var v387 uint64
			if v384 != 0 {
				v387 = v386
			} else {
				v387 = v385
			}
			var v390 uint64
			if v381 != 0 {
				v390 = v389
			} else {
				v390 = v388
			}
			var v392 uint64
			if v383 != 0 {
				v392 = v391
			} else {
				v392 = v390
			}
			var v395 uint64
			if v384 != 0 {
				v395 = v394
			} else {
				v395 = v393
			}
			s286 = 0x1
			s130 = v130
			s127 = 0x9
			s33 = v33
			s48 = v48
			s61 = v61
			s75 = v75
			s98 = v98
			s144 = v144
			s154 = v154
			s165 = v165
			s177 = v177
			s189 = v189
			s201 = v201
			s213 = v213
			s225 = v225
			s236 = v236
			s247 = v247
			s259 = v259
			s271 = v271
			s285 = v285
			s292 = v292
			s297 = v297
			s302 = v302
			s307 = v307
			s312 = v312
			s317 = v317
			s321 = v321
			s326 = v326
			s330 = v330
			s335 = v335
			s340 = v340
			s344 = v344
			s347 = v347
			s350 = v350
			s353 = v353
			s356 = v356
			s359 = v359
			s362 = v362
			s365 = v365
			s368 = v368
			s371 = v371
			s374 = v374
			s377 = v377
			s380 = v380
			s387 = v387
			s392 = v392
			s395 = v395
			s105 = 0x0
		default:
			var v26 uint64
			if v22 == 0x1 {
				v26 = 1
			}
			var v33 uint64
			if v26 != 0 {
				v33 = v24
			} else {
				v33 = v32
			}
			var v40 uint64
			if v22 == 0x3 {
				v40 = 1
			}
			v43 := v40 & v42
			var v48 uint64
			if v43 != 0 {
				v48 = v38
			} else {
				v48 = v47
			}
			v56 := v40 & v55
			var v61 uint64
			if v56 != 0 {
				v61 = v53
			} else {
				v61 = v60
			}
			var v68 uint64
			if v22 == 0x5 {
				v68 = 1
			}
			v70 := v68 & v69
			var v75 uint64
			if v70 != 0 {
				v75 = v66
			} else {
				v75 = v74
			}
			var v82 uint64
			if v22 == 0x4 {
				v82 = 1
			}
			v84 := v82 & v83
			var v86 uint64
			if v22 == 0x6 {
				v86 = 1
			}
			v88 := v86 & v87
			v89 := (v84 | v88)
			v92 := v40 & v91
			v93 := (v89 | v92)
			var v98 uint64
			if v93 != 0 {
				v98 = v80
			} else {
				v98 = v97
			}
			var v105 uint64
			if v22 == 0x8 {
				v105 = 1
			}
			var v106 uint64
			if v105 != 0 {
				v106 = v103
			} else {
				v106 = v22
			}
			var v107 uint64
			if v100 != 0 {
				v107 = 0x8
			} else {
				v107 = v22
			}
			var v109 uint64
			if v22 == 0x7 {
				v109 = 1
			}
			var v110 uint64
			if v109 != 0 {
				v110 = v107
			} else {
				v110 = v106
			}
			var v111 uint64
			if v87 != 0 {
				v111 = 0x7
			} else {
				v111 = v22
			}
			var v112 uint64
			if v86 != 0 {
				v112 = v111
			} else {
				v112 = v110
			}
			var v113 uint64
			if v69 != 0 {
				v113 = 0x6
			} else {
				v113 = v22
			}
			var v114 uint64
			if v68 != 0 {
				v114 = v113
			} else {
				v114 = v112
			}
			var v115 uint64
			if v83 != 0 {
				v115 = 0x7
			} else {
				v115 = v22
			}
			var v116 uint64
			if v82 != 0 {
				v116 = v115
			} else {
				v116 = v114
			}
			var v119 uint64
			if v40 != 0 {
				v119 = v118
			} else {
				v119 = v116
			}
			var v120 uint64
			if v99 != 0 {
				v120 = 0x3
			} else {
				v120 = v22
			}
			var v122 uint64
			if v22 == 0x2 {
				v122 = 1
			}
			var v123 uint64
			if v122 != 0 {
				v123 = v120
			} else {
				v123 = v119
			}
			var v124 uint64
			if v26 != 0 {
				v124 = 0x2
			} else {
				v124 = v123
			}
			var v126 uint64
			if v22 == 0x0 {
				v126 = 1
			}
			var v127 uint64
			if v126 != 0 {
				v127 = 0x1
			} else {
				v127 = v124
			}
			var v130 uint64
			if v105 != 0 {
				v130 = v129
			} else {
				v130 = v0
			}
			v131 := (v82 | v86)
			v132 := (v131 | v109)
			var v144 uint64
			if v132 != 0 {
				v144 = v143
			} else {
				v144 = v142
			}
			var v154 uint64
			if v132 != 0 {
				v154 = v153
			} else {
				v154 = v152
			}
			var v165 uint64
			if v132 != 0 {
				v165 = v164
			} else {
				v165 = v163
			}
			var v177 uint64
			if v132 != 0 {
				v177 = v176
			} else {
				v177 = v175
			}
			var v189 uint64
			if v132 != 0 {
				v189 = v188
			} else {
				v189 = v187
			}
			var v201 uint64
			if v132 != 0 {
				v201 = v200
			} else {
				v201 = v199
			}
			var v213 uint64
			if v132 != 0 {
				v213 = v212
			} else {
				v213 = v211
			}
			var v225 uint64
			if v132 != 0 {
				v225 = v224
			} else {
				v225 = v223
			}
			var v236 uint64
			if v132 != 0 {
				v236 = v235
			} else {
				v236 = v234
			}
			var v247 uint64
			if v132 != 0 {
				v247 = v246
			} else {
				v247 = v245
			}
			var v259 uint64
			if v132 != 0 {
				v259 = v258
			} else {
				v259 = v257
			}
			var v271 uint64
			if v132 != 0 {
				v271 = v270
			} else {
				v271 = v269
			}
			var v285 uint64
			if v132 != 0 {
				v285 = v284
			} else {
				v285 = v283
			}
			var v286 uint64
			if v22 == 0x9 {
				v286 = 1
			}
			var v287 uint64
			if v127 == 0x1 {
				v287 = 1
			}
			v288 := v126 & v287
			var v292 uint64
			if v288 != 0 {
				v292 = v291
			} else {
				v292 = v290
			}
			var v293 uint64
			if v127 == 0x2 {
				v293 = 1
			}
			v294 := v26 & v293
			var v297 uint64
			if v294 != 0 {
				v297 = v296
			} else {
				v297 = v295
			}
			var v298 uint64
			if v127 == 0x3 {
				v298 = 1
			}
			v299 := v122 & v298
			var v302 uint64
			if v299 != 0 {
				v302 = v301
			} else {
				v302 = v300
			}
			var v303 uint64
			if v127 == 0x7 {
				v303 = 1
			}
			v304 := v40 & v303
			var v307 uint64
			if v304 != 0 {
				v307 = v306
			} else {
				v307 = v305
			}
			var v308 uint64
			if v127 == 0x4 {
				v308 = 1
			}
			v309 := v40 & v308
			var v312 uint64
			if v309 != 0 {
				v312 = v311
			} else {
				v312 = v310
			}
			var v313 uint64
			if v127 == 0x5 {
				v313 = 1
			}
			v314 := v40 & v313
			var v317 uint64
			if v314 != 0 {
				v317 = v316
			} else {
				v317 = v315
			}
			v318 := v82 & v303
			var v321 uint64
			if v318 != 0 {
				v321 = v320
			} else {
				v321 = v319
			}
			var v322 uint64
			if v127 == 0x6 {
				v322 = 1
			}
			v323 := v68 & v322
			var v326 uint64
			if v323 != 0 {
				v326 = v325
			} else {
				v326 = v324
			}
			v327 := v86 & v303
			var v330 uint64
			if v327 != 0 {
				v330 = v329
			} else {
				v330 = v328
			}
			var v331 uint64
			if v127 == 0x8 {
				v331 = 1
			}
			v332 := v109 & v331
			var v335 uint64
			if v332 != 0 {
				v335 = v334
			} else {
				v335 = v333
			}
			var v336 uint64
			if v127 == 0x9 {
				v336 = 1
			}
			v337 := v105 & v336
			var v340 uint64
			if v337 != 0 {
				v340 = v339
			} else {
				v340 = v338
			}
			v341 := v105 & v287
			var v344 uint64
			if v341 != 0 {
				v344 = v343
			} else {
				v344 = v342
			}
			var v347 uint64
			if v26 != 0 {
				v347 = v346
			} else {
				v347 = v345
			}
			var v350 uint64
			if v26 != 0 {
				v350 = v349
			} else {
				v350 = v348
			}
			var v353 uint64
			if v26 != 0 {
				v353 = v352
			} else {
				v353 = v351
			}
			var v356 uint64
			if v43 != 0 {
				v356 = v355
			} else {
				v356 = v354
			}
			var v359 uint64
			if v43 != 0 {
				v359 = v358
			} else {
				v359 = v357
			}
			var v362 uint64
			if v43 != 0 {
				v362 = v361
			} else {
				v362 = v360
			}
			var v365 uint64
			if v56 != 0 {
				v365 = v364
			} else {
				v365 = v363
			}
			var v368 uint64
			if v56 != 0 {
				v368 = v367
			} else {
				v368 = v366
			}
			var v371 uint64
			if v56 != 0 {
				v371 = v370
			} else {
				v371 = v369
			}
			var v374 uint64
			if v70 != 0 {
				v374 = v373
			} else {
				v374 = v372
			}
			var v377 uint64
			if v70 != 0 {
				v377 = v376
			} else {
				v377 = v375
			}
			var v380 uint64
			if v70 != 0 {
				v380 = v379
			} else {
				v380 = v378
			}
			v381 := v93 & v77
			v383 := v93 & v382
			v384 := (v381 | v383)
			var v387 uint64
			if v384 != 0 {
				v387 = v386
			} else {
				v387 = v385
			}
			var v390 uint64
			if v381 != 0 {
				v390 = v389
			} else {
				v390 = v388
			}
			var v392 uint64
			if v383 != 0 {
				v392 = v391
			} else {
				v392 = v390
			}
			var v395 uint64
			if v384 != 0 {
				v395 = v394
			} else {
				v395 = v393
			}
			s286 = v286
			s130 = v130
			s127 = v127
			s33 = v33
			s48 = v48
			s61 = v61
			s75 = v75
			s98 = v98
			s144 = v144
			s154 = v154
			s165 = v165
			s177 = v177
			s189 = v189
			s201 = v201
			s213 = v213
			s225 = v225
			s236 = v236
			s247 = v247
			s259 = v259
			s271 = v271
			s285 = v285
			s292 = v292
			s297 = v297
			s302 = v302
			s307 = v307
			s312 = v312
			s317 = v317
			s321 = v321
			s326 = v326
			s330 = v330
			s335 = v335
			s340 = v340
			s344 = v344
			s347 = v347
			s350 = v350
			s353 = v353
			s356 = v356
			s359 = v359
			s362 = v362
			s365 = v365
			s368 = v368
			s371 = v371
			s374 = v374
			s377 = v377
			s380 = v380
			s387 = v387
			s392 = v392
			s395 = v395
			s105 = v105
		}
		if s286 != 0 {
			break
		}
		if s105 != 0 {
			if addr := uint64(v0); addr < uint64(len(m1)) {
				m1[addr] = v283
			}
		}
		v0 = s130
		v22 = s127
		v27 = s33
		v44 = s48
		v57 = s61
		v71 = s75
		v94 = s98
		v142 = s144
		v152 = s154
		v163 = s165
		v175 = s177
		v187 = s189
		v199 = s201
		v211 = s213
		v223 = s225
		v234 = s236
		v245 = s247
		v257 = s259
		v269 = s271
		v283 = s285
		v290 = s292
		v295 = s297
		v300 = s302
		v305 = s307
		v310 = s312
		v315 = s317
		v319 = s321
		v324 = s326
		v328 = s330
		v333 = s335
		v338 = s340
		v342 = s344
		v345 = s347
		v348 = s350
		v351 = s353
		v354 = s356
		v357 = s359
		v360 = s362
		v363 = s365
		v366 = s368
		v369 = s371
		v372 = s374
		v375 = s377
		v378 = s380
		v385 = s387
		v388 = s392
		v393 = s395
	}
	vals[0] = v0
	vals[22] = v22
	vals[27] = v27
	vals[44] = v44
	vals[57] = v57
	vals[71] = v71
	vals[94] = v94
	vals[142] = v142
	vals[152] = v152
	vals[163] = v163
	vals[175] = v175
	vals[187] = v187
	vals[199] = v199
	vals[211] = v211
	vals[223] = v223
	vals[234] = v234
	vals[245] = v245
	vals[257] = v257
	vals[269] = v269
	vals[283] = v283
	vals[290] = v290
	vals[295] = v295
	vals[300] = v300
	vals[305] = v305
	vals[310] = v310
	vals[315] = v315
	vals[319] = v319
	vals[324] = v324
	vals[328] = v328
	vals[333] = v333
	vals[338] = v338
	vals[342] = v342
	vals[345] = v345
	vals[348] = v348
	vals[351] = v351
	vals[354] = v354
	vals[357] = v357
	vals[360] = v360
	vals[363] = v363
	vals[366] = v366
	vals[369] = v369
	vals[372] = v372
	vals[375] = v375
	vals[378] = v378
	vals[385] = v385
	vals[388] = v388
	vals[393] = v393
	return n
}

func run_h264_pruned(vals []uint64, mems [][]uint64, max uint64) uint64 {
	_ = vals[358]
	m0 := mems[0]
	m1 := mems[1]
	v0 := vals[0]
	v1 := vals[1]
	v13 := vals[13]
	v32 := vals[32]
	v36 := vals[36]
	v41 := vals[41]
	v45 := vals[45]
	v127 := vals[127]
	v141 := vals[141]
	v148 := vals[148]
	v155 := vals[155]
	v163 := vals[163]
	v171 := vals[171]
	v179 := vals[179]
	v187 := vals[187]
	v195 := vals[195]
	v202 := vals[202]
	v209 := vals[209]
	v217 := vals[217]
	v225 := vals[225]
	v249 := vals[249]
	v255 := vals[255]
	v260 := vals[260]
	v265 := vals[265]
	v270 := vals[270]
	v275 := vals[275]
	v280 := vals[280]
	v284 := vals[284]
	v289 := vals[289]
	v293 := vals[293]
	v298 := vals[298]
	v303 := vals[303]
	v307 := vals[307]
	v310 := vals[310]
	v313 := vals[313]
	v316 := vals[316]
	v319 := vals[319]
	v322 := vals[322]
	v325 := vals[325]
	v328 := vals[328]
	v331 := vals[331]
	v334 := vals[334]
	v337 := vals[337]
	v340 := vals[340]
	v343 := vals[343]
	v350 := vals[350]
	v355 := vals[355]
	var n uint64
	for ; n < max; n++ {
		v5 := (v0 + 0x1) & 0x1fff
		var v15 uint64
		if v13 == 0x0 {
			v15 = 1
		}
		var v19 uint64
		if addr := uint64(v0); addr < uint64(len(m0)) {
			v19 = m0[addr] & 0xfffffff
		}
		v21 := v19 & 0x3
		var v23 uint64
		if v21 == 0x0 {
			v23 = 1
		}
		var v26 uint64
		if v21 == 0x1 {
			v26 = 1
		}
		var v29 uint64
		if v26 != 0 {
			v29 = 0x4
		} else {
			v29 = 0x5
		}
		var v30 uint64
		if v23 != 0 {
			v30 = 0x7
		} else {
			v30 = v29
		}
		var v33 uint64
		if v32 == 0x0 {
			v33 = 1
		}
		var v37 uint64
		if v36 == 0x0 {
			v37 = 1
		}
		var v42 uint64
		if v41 == 0x0 {
			v42 = 1
		}
		var v46 uint64
		if v45 == 0x0 {
			v46 = 1
		}
		var v49 uint64
		if addr := uint64(0x0); addr < uint64(len(m0)) {
			v49 = m0[addr] & 0x1fff
		}
		var v50 uint64
		if v49 <= v0 {
			v50 = 1
		}
		var v52 uint64
		if v50 != 0 {
			v52 = 0x9
		} else {
			v52 = 0x1
		}
		v63 := (v19 >> 2)
		v65 := v63 & 0x3f
		v67 := (v65 >> 1)
		var v68 uint64
		if v13 != 0x0 {
			v68 = 1
		}
		v70 := (v13 - 0x1) & 0xff
		var v71 uint64
		if v68 != 0 {
			v71 = v70
		} else {
			v71 = v13
		}
		v75 := (v65 | 0x0)
		v76 := (v65 >> 2)
		v77 := (v75 - v76) & 0xff
		v78 := (0xa + v77) & 0xff
		var v79 uint64
		if v32 != 0x0 {
			v79 = 1
		}
		v80 := (v32 - 0x1) & 0xff
		var v81 uint64
		if v79 != 0 {
			v81 = v80
		} else {
			v81 = v32
		}
		var v84 uint64
		if v21 == 0x2 {
			v84 = 1
		}
		v88 := (v19 >> 9)
		v90 := v88 & 0x7
		v91 := (v90 | 0x0)
		v92 := (v91 << 1) & 0xff
		v93 := (v91 + v92) & 0xff
		v94 := (0x3 + v93) & 0xff
		var v95 uint64
		if v36 != 0x0 {
			v95 = 1
		}
		v96 := (v36 - 0x1) & 0xff
		var v97 uint64
		if v95 != 0 {
			v97 = v96
		} else {
			v97 = v36
		}
		v101 := (0x2 + v93) & 0xff
		v103 := (v19 >> 8)
		v105 := v103 & 0x1
		var v107 uint64
		if v105 != 0 {
			v107 = 0x14
		} else {
			v107 = 0x0
		}
		v108 := (v101 + v107) & 0xff
		var v109 uint64
		if v41 != 0x0 {
			v109 = 1
		}
		v110 := (v41 - 0x1) & 0xff
		var v111 uint64
		if v109 != 0 {
			v111 = v110
		} else {
			v111 = v41
		}
		var v119 uint64
		if v65 != 0x0 {
			v119 = 1
		}
		var v122 uint64
		if v119 != 0 {
			v122 = 0xc
		} else {
			v122 = 0x8
		}
		var v123 uint64
		if v45 != 0x0 {
			v123 = 1
		}
		v124 := (v45 - 0x1) & 0xff
		var v125 uint64
		if v123 != 0 {
			v125 = v124
		} else {
			v125 = v45
		}
		v131 := (v19 >> 12)
		v133 := v131 & 0xffff
		v135 := (v133 | 0x0)
		v137 := (v135 + 0x1) & 0xffffffffffff
		v138 := (v135 * v137) & 0xffffffffffff
		v139 := (v127 + v138) & 0xffffffffffff
		v142 := (v135 << 1) & 0xffffffffffff
		v144 := (v142 + 0x3) & 0xffffffffffff
		v145 := (v142 * v144) & 0xffffffffffff
		v146 := (v141 + v145) & 0xffffffffffff
		v149 := (v135 << 2) & 0xffffffffffff
		v151 := (v149 + 0x5) & 0xffffffffffff
		v152 := (v149 * v151) & 0xffffffffffff
		v153 := (v148 + v152) & 0xffffffffffff
		v157 := (v135 << 3) & 0xffffffffffff
		v159 := (v157 + 0x7) & 0xffffffffffff
		v160 := (v157 * v159) & 0xffffffffffff
		v161 := (v155 + v160) & 0xffffffffffff
		v165 := (v135 << 4) & 0xffffffffffff
		v167 := (v165 + 0x9) & 0xffffffffffff
		v168 := (v165 * v167) & 0xffffffffffff
		v169 := (v163 + v168) & 0xffffffffffff
		v173 := (v135 << 5) & 0xffffffffffff
		v175 := (v173 + 0xb) & 0xffffffffffff
		v176 := (v173 * v175) & 0xffffffffffff
		v177 := (v171 + v176) & 0xffffffffffff
		v181 := (v135 << 6) & 0xffffffffffff
		v183 := (v181 + 0xd) & 0xffffffffffff
		v184 := (v181 * v183) & 0xffffffffffff
		v185 := (v179 + v184) & 0xffffffffffff
		v189 := (v135 << 7) & 0xffffffffffff
		v191 := (v189 + 0xf) & 0xffffffffffff
		v192 := (v189 * v191) & 0xffffffffffff
		v193 := (v187 + v192) & 0xffffffffffff
		v196 := (v135 << 8) & 0xffffffffffff
		v198 := (v196 + 0x11) & 0xffffffffffff
		v199 := (v196 * v198) & 0xffffffffffff
		v200 := (v195 + v199) & 0xffffffffffff
		v203 := (v135 << 9) & 0xffffffffffff
		v205 := (v203 + 0x13) & 0xffffffffffff
		v206 := (v203 * v205) & 0xffffffffffff
		v207 := (v202 + v206) & 0xffffffffffff
		v211 := (v135 << 10) & 0xffffffffffff
		v213 := (v211 + 0x15) & 0xffffffffffff
		v214 := (v211 * v213) & 0xffffffffffff
		v215 := (v209 + v214) & 0xffffffffffff
		v219 := (v135 << 11) & 0xffffffffffff
		v221 := (v219 + 0x17) & 0xffffffffffff
		v222 := (v219 * v221) & 0xffffffffffff
		v223 := (v217 + v222) & 0xffffffffffff
		v226 := (v133 * v133) & 0xffffffff
		v227 := (v65 * v65) & 0xffffffff
		v228 := (v226 + v227) & 0xffffffff
		v229 := (v228 >> 2)
		v230 := (v228 >> 1)
		v231 := (v229 + v230) & 0xffffffff
		v232 := (v231 + v228) & 0xffffffff
		v233 := (v127 ^ v141)
		v234 := (v233 ^ v148)
		v235 := (v234 ^ v155)
		v236 := (v235 ^ v163)
		v237 := (v236 ^ v171)
		v238 := (v237 ^ v179)
		v239 := (v238 ^ v187)
		v240 := (v239 ^ v195)
		v241 := (v240 ^ v202)
		v242 := (v241 ^ v209)
		v243 := (v242 ^ v217)
		v245 := v243 & 0xffffffff
		v246 := (v232 ^ v245)
		v247 := (v225 + v246) & 0xffffffff
		v253 := (v249 + 0x1) & 0xffffff
		v258 := (v255 + 0x1) & 0xffffff
		v263 := (v260 + 0x1) & 0xffffff
		v268 := (v265 + 0x1) & 0xffffff
		v273 := (v270 + 0x1) & 0xffffff
		v278 := (v275 + 0x1) & 0xffffff
		v282 := (v280 + 0x1) & 0xffffff
		v287 := (v284 + 0x1) & 0xffffff
		v291 := (v289 + 0x1) & 0xffffff
		v296 := (v293 + 0x1) & 0xffffff
		v301 := (v298 + 0x1) & 0xffffff
		v305 := (v303 + 0x1) & 0xffffff
		v308 := (v307 + 0x1) & 0xffffff
		v311 := (v310 + v67) & 0xffffff
		v314 := (v313 + v13) & 0xffffff
		v317 := (v316 + 0x1) & 0xffffff
		v320 := (v319 + v78) & 0xffffff
		v323 := (v322 + v32) & 0xffffff
		v326 := (v325 + 0x1) & 0xffffff
		v329 := (v328 + v94) & 0xffffff
		v332 := (v331 + v36) & 0xffffff
		v335 := (v334 + 0x1) & 0xffffff
		v338 := (v337 + v108) & 0xffffff
		v341 := (v340 + v41) & 0xffffff
		v345 := ^v119 & 0x1
		v348 := (v343 + 0x1) & 0xffffff
		v351 := (v350 + 0x8) & 0xffffff
		v352 := (v350 + 0xc) & 0xffffff
		v356 := (v355 + v45) & 0xffffff
		var s3, s6, s61, s72, s82, s98, s112, s126, s140, s147, s154, s162, s170, s178, s186, s194, s201, s208, s216, s224, s248, s254, s259, s264, s269, s274, s279, s283, s288, s292, s297, s302, s306, s309, s312, s315, s318, s321, s324, s327, s330, s333, s336, s339, s342, s349, s354, s357, s358 uint64
		switch v1 {
		case 0x0:
			v6 := v0
			v72 := v71
			v73 := 0x0 & v26
			var v82 uint64
			if v73 != 0 {
				v82 = v78
			} else {
				v82 = v81
			}
			v85 := 0x0 & v84
			var v98 uint64
			if v85 != 0 {
				v98 = v94
			} else {
				v98 = v97
			}
			v99 := 0x0 & v37
			var v112 uint64
			if v99 != 0 {
				v112 = v108
			} else {
				v112 = v111
			}
			v113 := 0x0 & v33
			v114 := 0x0 & v42
			v115 := (v113 | v114)
			v116 := 0x0 & v23
			v117 := (v115 | v116)
			var v126 uint64
			if v117 != 0 {
				v126 = v122
			} else {
				v126 = v125
			}
			v140 := v127
			v147 := v141
			v154 := v148
			v162 := v155
			v170 := v163
			v178 := v171
			v186 := v179
			v194 := v187
			v201 := v195
			v208 := v202
			v216 := v209
			v224 := v217
			v248 := v225
			v254 := v253
			v259 := v255
			v264 := v260
			v269 := v265
			v274 := v270
			v279 := v275
			v283 := v280
			v288 := v284
			v292 := v289
			v297 := v293
			v302 := v298
			v306 := v303
			v309 := v307
			v312 := v310
			v315 := v313
			var v318 uint64
			if v73 != 0 {
				v318 = v317
			} else {
				v318 = v316
			}
			var v321 uint64
			if v73 != 0 {
				v321 = v320
			} else {
				v321 = v319
			}
			var v324 uint64
			if v73 != 0 {
				v324 = v323
			} else {
				v324 = v322
			}
			var v327 uint64
			if v85 != 0 {
				v327 = v326
			} else {
				v327 = v325
			}
			var v330 uint64
			if v85 != 0 {
				v330 = v329
			} else {
				v330 = v328
			}
			var v333 uint64
			if v85 != 0 {
				v333 = v332
			} else {
				v333 = v331
			}
			var v336 uint64
			if v99 != 0 {
				v336 = v335
			} else {
				v336 = v334
			}
			var v339 uint64
			if v99 != 0 {
				v339 = v338
			} else {
				v339 = v337
			}
			var v342 uint64
			if v99 != 0 {
				v342 = v341
			} else {
				v342 = v340
			}
			v344 := v117 & v119
			v346 := v117 & v345
			v347 := (v344 | v346)
			var v349 uint64
			if v347 != 0 {
				v349 = v348
			} else {
				v349 = v343
			}
			var v353 uint64
			if v344 != 0 {
				v353 = v352
			} else {
				v353 = v350
			}
			var v354 uint64
			if v346 != 0 {
				v354 = v351
			} else {
				v354 = v353
			}
			var v357 uint64
			if v347 != 0 {
				v357 = v356
			} else {
				v357 = v355
			}
			s358 = 0x0
			s6 = v6
			s61 = 0x1
			s72 = v72
			s82 = v82
			s98 = v98
			s112 = v112
			s126 = v126
			s140 = v140
			s147 = v147
			s154 = v154
			s162 = v162
			s170 = v170
			s178 = v178
			s186 = v186
			s194 = v194
			s201 = v201
			s208 = v208
			s216 = v216
			s224 = v224
			s248 = v248
			s254 = v254
			s259 = v259
			s264 = v264
			s269 = v269
			s274 = v274
			s279 = v279
			s283 = v283
			s288 = v288
			s292 = v292
			s297 = v297
			s302 = v302
			s306 = v306
			s309 = v309
			s312 = v312
			s315 = v315
			s318 = v318
			s321 = v321
			s324 = v324
			s327 = v327
			s330 = v330
			s333 = v333
			s336 = v336
			s339 = v339
			s342 = v342
			s349 = v349
			s354 = v354
			s357 = v357
			s3 = 0x0
		case 0x1:
			v6 := v0
			v72 := v67
			v73 := 0x0 & v26
			var v82 uint64
			if v73 != 0 {
				v82 = v78
			} else {
				v82 = v81
			}
			v85 := 0x0 & v84
			var v98 uint64
			if v85 != 0 {
				v98 = v94
			} else {
				v98 = v97
			}
			v99 := 0x0 & v37
			var v112 uint64
			if v99 != 0 {
				v112 = v108
			} else {
				v112 = v111
			}
			v113 := 0x0 & v33
			v114 := 0x0 & v42
			v115 := (v113 | v114)
			v116 := 0x0 & v23
			v117 := (v115 | v116)
			var v126 uint64
			if v117 != 0 {
				v126 = v122
			} else {
				v126 = v125
			}
			v140 := v127
			v147 := v141
			v154 := v148
			v162 := v155
			v170 := v163
			v178 := v171
			v186 := v179
			v194 := v187
			v201 := v195
			v208 := v202
			v216 := v209
			v224 := v217
			v248 := v225
			v254 := v249
			v259 := v258
			v264 := v260
			v269 := v265
			v274 := v270
			v279 := v275
			v283 := v280
			v288 := v284
			v292 := v289
			v297 := v293
			v302 := v298
			v306 := v303
			v309 := v308
			v312 := v311
			v315 := v314
			var v318 uint64
			if v73 != 0 {
				v318 = v317
			} else {
				v318 = v316
			}
			var v321 uint64
			if v73 != 0 {
				v321 = v320
			} else {
				v321 = v319
			}
			var v324 uint64
			if v73 != 0 {
				v324 = v323
			} else {
				v324 = v322
			}
			var v327 uint64
			if v85 != 0 {
				v327 = v326
			} else {
				v327 = v325
			}
			var v330 uint64
			if v85 != 0 {
				v330 = v329
			} else {
				v330 = v328
			}
			var v333 uint64
			if v85 != 0 {
				v333 = v332
			} else {
				v333 = v331
			}
			var v336 uint64
			if v99 != 0 {
				v336 = v335
			} else {
				v336 = v334
			}
			var v339 uint64
			if v99 != 0 {
				v339 = v338
			} else {
				v339 = v337
			}
			var v342 uint64
			if v99 != 0 {
				v342 = v341
			} else {
				v342 = v340
			}
			v344 := v117 & v119
			v346 := v117 & v345
			v347 := (v344 | v346)
			var v349 uint64
			if v347 != 0 {
				v349 = v348
			} else {
				v349 = v343
			}
			var v353 uint64
			if v344 != 0 {
				v353 = v352
			} else {
				v353 = v350
			}
			var v354 uint64
			if v346 != 0 {
				v354 = v351
			} else {
				v354 = v353
			}
			var v357 uint64
			if v347 != 0 {
				v357 = v356
			} else {
				v357 = v355
			}
			s358 = 0x0
			s6 = v6
			s61 = 0x2
			s72 = v72
			s82 = v82
			s98 = v98
			s112 = v112
			s126 = v126
			s140 = v140
			s147 = v147
			s154 = v154
			s162 = v162
			s170 = v170
			s178 = v178
			s186 = v186
			s194 = v194
			s201 = v201
			s208 = v208
			s216 = v216
			s224 = v224
			s248 = v248
			s254 = v254
			s259 = v259
			s264 = v264
			s269 = v269
			s274 = v274
			s279 = v279
			s283 = v283
			s288 = v288
			s292 = v292
			s297 = v297
			s302 = v302
			s306 = v306
			s309 = v309
			s312 = v312
			s315 = v315
			s318 = v318
			s321 = v321
			s324 = v324
			s327 = v327
			s330 = v330
			s333 = v333
			s336 = v336
			s339 = v339
			s342 = v342
			s349 = v349
			s354 = v354
			s357 = v357
			s3 = 0x0
		case 0x2:
			v6 := v0
			var v17 uint64
			if v15 != 0 {
				v17 = 0x3
			} else {
				v17 = 0x2
			}
			v59 := v17
			v60 := v59
			v61 := v60
			v72 := v71
			v73 := 0x0 & v26
			var v82 uint64
			if v73 != 0 {
				v82 = v78
			} else {
				v82 = v81
			}
			v85 := 0x0 & v84
			var v98 uint64
			if v85 != 0 {
				v98 = v94
			} else {
				v98 = v97
			}
			v99 := 0x0 & v37
			var v112 uint64
			if v99 != 0 {
				v112 = v108
			} else {
				v112 = v111
			}
			v113 := 0x0 & v33
			v114 := 0x0 & v42
			v115 := (v113 | v114)
			v116 := 0x0 & v23
			v117 := (v115 | v116)
			var v126 uint64
			if v117 != 0 {
				v126 = v122
			} else {
				v126 = v125
			}
			v140 := v127
			v147 := v141
			v154 := v148
			v162 := v155
			v170 := v163
			v178 := v171
			v186 := v179
			v194 := v187
			v201 := v195
			v208 := v202
			v216 := v209
			v224 := v217
			v248 := v225
			var v250 uint64
			if v61 == 0x1 {
				v250 = 1
			}
			v251 := 0x0 & v250
			var v254 uint64
			if v251 != 0 {
				v254 = v253
			} else {
				v254 = v249
			}
			var v256 uint64
			if v61 == 0x2 {
				v256 = 1
			}
			v257 := 0x0 & v256
			var v259 uint64
			if v257 != 0 {
				v259 = v258
			} else {
				v259 = v255
			}
			var v261 uint64
			if v61 == 0x3 {
				v261 = 1
			}
			v262 := 0x1 & v261
			var v264 uint64
			if v262 != 0 {
				v264 = v263
			} else {
				v264 = v260
			}
			var v266 uint64
			if v61 == 0x7 {
				v266 = 1
			}
			v267 := 0x0 & v266
			var v269 uint64
			if v267 != 0 {
				v269 = v268
			} else {
				v269 = v265
			}
			var v271 uint64
			if v61 == 0x4 {
				v271 = 1
			}
			v272 := 0x0 & v271
			var v274 uint64
			if v272 != 0 {
				v274 = v273
			} else {
				v274 = v270
			}
			var v276 uint64
			if v61 == 0x5 {
				v276 = 1
			}
			v277 := 0x0 & v276
			var v279 uint64
			if v277 != 0 {
				v279 = v278
			} else {
				v279 = v275
			}
			v281 := 0x0 & v266
			var v283 uint64
			if v281 != 0 {
				v283 = v282
			} else {
				v283 = v280
			}
			var v285 uint64
			if v61 == 0x6 {
				v285 = 1
			}
			v286 := 0x0 & v285
			var v288 uint64
			if v286 != 0 {
				v288 = v287
			} else {
				v288 = v284
			}
			v290 := 0x0 & v266
			var v292 uint64
			if v290 != 0 {
				v292 = v291
			} else {
				v292 = v289
			}
			var v294 uint64
			if v61 == 0x8 {
				v294 = 1
			}
			v295 := 0x0 & v294
			var v297 uint64
			if v295 != 0 {
				v297 = v296
			} else {
				v297 = v293
			}
			var v299 uint64
			if v61 == 0x9 {
				v299 = 1
			}
			v300 := 0x0 & v299
			var v302 uint64
			if v300 != 0 {
				v302 = v301
			} else {
				v302 = v298
			}
			v304 := 0x0 & v250
			var v306 uint64
			if v304 != 0 {
				v306 = v305
			} else {
				v306 = v303
			}
			v309 := v307
			v312 := v310
			v315 := v313
			var v318 uint64
			if v73 != 0 {
				v318 = v317
			} else {
				v318 = v316
			}
			var v321 uint64
			if v73 != 0 {
				v321 = v320
			} else {
				v321 = v319
			}
			var v324 uint64
			if v73 != 0 {
				v324 = v323
			} else {
				v324 = v322
			}
			var v327 uint64
			if v85 != 0 {
				v327 = v326
			} else {
				v327 = v325
			}
			var v330 uint64
			if v85 != 0 {
				v330 = v329
			} else {
				v330 = v328
			}
			var v333 uint64
			if v85 != 0 {
				v333 = v332
			} else {
				v333 = v331
			}
			var v336 uint64
			if v99 != 0 {
				v336 = v335
			} else {
				v336 = v334
			}
			var v339 uint64
			if v99 != 0 {
				v339 = v338
			} else {
				v339 = v337
			}
			var v342 uint64
			if v99 != 0 {
				v342 = v341
			} else {
				v342 = v340
			}
			v344 := v117 & v119
			v346 := v117 & v345
			v347 := (v344 | v346)
			var v349 uint64
			if v347 != 0 {
				v349 = v348
			} else {
				v349 = v343
			}
			var v353 uint64
			if v344 != 0 {
				v353 = v352
			} else {
				v353 = v350
			}
			var v354 uint64
			if v346 != 0 {
				v354 = v351
			} else {
				v354 = v353
			}
			var v357 uint64
			if v347 != 0 {
				v357 = v356
			} else {
				v357 = v355
			}
			s358 = 0x0
			s6 = v6
			s61 = v61
			s72 = v72
			s82 = v82
			s98 = v98
			s112 = v112
			s126 = v126
			s140 = v140
			s147 = v147
			s154 = v154
			s162 = v162
			s170 = v170
			s178 = v178
			s186 = v186
			s194 = v194
			s201 = v201
			s208 = v208
			s216 = v216
			s224 = v224
			s248 = v248
			s254 = v254
			s259 = v259
			s264 = v264
			s269 = v269
			s274 = v274
			s279 = v279
			s283 = v283
			s288 = v288
			s292 = v292
			s297 = v297
			s302 = v302
			s306 = v306
			s309 = v309
			s312 = v312
			s315 = v315
			s318 = v318
			s321 = v321
			s324 = v324
			s327 = v327
			s330 = v330
			s333 = v333
			s336 = v336
			s339 = v339
			s342 = v342
			s349 = v349
			s354 = v354
			s357 = v357
			s3 = 0x0
		case 0x3:
			v6 := v0
			v58 := v30
			v59 := v58
			v60 := v59
			v61 := v60
			v72 := v71
			v73 := 0x1 & v26
			var v82 uint64
			if v73 != 0 {
				v82 = v78
			} else {
				v82 = v81
			}
			v85 := 0x1 & v84
			var v98 uint64
			if v85 != 0 {
				v98 = v94
			} else {
				v98 = v97
			}
			v99 := 0x0 & v37
			var v112 uint64
			if v99 != 0 {
				v112 = v108
			} else {
				v112 = v111
			}
			v113 := 0x0 & v33
			v114 := 0x0 & v42
			v115 := (v113 | v114)
			v116 := 0x1 & v23
			v117 := (v115 | v116)
			var v126 uint64
			if v117 != 0 {
				v126 = v122
			} else {
				v126 = v125
			}
			v140 := v127
			v147 := v141
			v154 := v148
			v162 := v155
			v170 := v163
			v178 := v171
			v186 := v179
			v194 := v187
			v201 := v195
			v208 := v202
			v216 := v209
			v224 := v217
			v248 := v225
			var v250 uint64
			if v61 == 0x1 {
				v250 = 1
			}
			v251 := 0x0 & v250
			var v254 uint64
			if v251 != 0 {
				v254 = v253
			} else {
				v254 = v249
			}
			var v256 uint64
			if v61 == 0x2 {
				v256 = 1
			}
			v257 := 0x0 & v256
			var v259 uint64
			if v257 != 0 {
				v259 = v258
			} else {
				v259 = v255
			}
			var v261 uint64
			if v61 == 0x3 {
				v261 = 1
			}
			v262 := 0x0 & v261
			var v264 uint64
			if v262 != 0 {
				v264 = v263
			} else {
				v264 = v260
			}
			var v266 uint64
			if v61 == 0x7 {
				v266 = 1
			}
			v267 := 0x1 & v266
			var v269 uint64
			if v267 != 0 {
				v269 = v268
			} else {
				v269 = v265
			}
			var v271 uint64
			if v61 == 0x4 {
				v271 = 1
			}
			v272 := 0x1 & v271
			var v274 uint64
			if v272 != 0 {
				v274 = v273
			} else {
				v274 = v270
			}
			var v276 uint64
			if v61 == 0x5 {
				v276 = 1
			}
			v277 := 0x1 & v276
			var v279 uint64
			if v277 != 0 {
				v279 = v278
			} else {
				v279 = v275
			}
			v281 := 0x0 & v266
			var v283 uint64
			if v281 != 0 {
				v283 = v282
			} else {
				v283 = v280
			}
			var v285 uint64
			if v61 == 0x6 {
				v285 = 1
			}
			v286 := 0x0 & v285
			var v288 uint64
			if v286 != 0 {
				v288 = v287
			} else {
				v288 = v284
			}
			v290 := 0x0 & v266
			var v292 uint64
			if v290 != 0 {
				v292 = v291
			} else {
				v292 = v289
			}
			var v294 uint64
			if v61 == 0x8 {
				v294 = 1
			}
			v295 := 0x0 & v294
			var v297 uint64
			if v295 != 0 {
				v297 = v296
			} else {
				v297 = v293
			}
			var v299 uint64
			if v61 == 0x9 {
				v299 = 1
			}
			v300 := 0x0 & v299
			var v302 uint64
			if v300 != 0 {
				v302 = v301
			} else {
				v302 = v298
			}
			v304 := 0x0 & v250
			var v306 uint64
			if v304 != 0 {
				v306 = v305
			} else {
				v306 = v303
			}
			v309 := v307
			v312 := v310
			v315 := v313
			var v318 uint64
			if v73 != 0 {
				v318 = v317
			} else {
				v318 = v316
			}
			var v321 uint64
			if v73 != 0 {
				v321 = v320
			} else {
				v321 = v319
			}
			var v324 uint64
			if v73 != 0 {
				v324 = v323
			} else {
				v324 = v322
			}
			var v327 uint64
			if v85 != 0 {
				v327 = v326
			} else {
				v327 = v325
			}
			var v330 uint64
			if v85 != 0 {
				v330 = v329
			} else {
				v330 = v328
			}
			var v333 uint64
			if v85 != 0 {
				v333 = v332
			} else {
				v333 = v331
			}
			var v336 uint64
			if v99 != 0 {
				v336 = v335
			} else {
				v336 = v334
			}
			var v339 uint64
			if v99 != 0 {
				v339 = v338
			} else {
				v339 = v337
			}
			var v342 uint64
			if v99 != 0 {
				v342 = v341
			} else {
				v342 = v340
			}
			v344 := v117 & v119
			v346 := v117 & v345
			v347 := (v344 | v346)
			var v349 uint64
			if v347 != 0 {
				v349 = v348
			} else {
				v349 = v343
			}
			var v353 uint64
			if v344 != 0 {
				v353 = v352
			} else {
				v353 = v350
			}
			var v354 uint64
			if v346 != 0 {
				v354 = v351
			} else {
				v354 = v353
			}
			var v357 uint64
			if v347 != 0 {
				v357 = v356
			} else {
				v357 = v355
			}
			s358 = 0x0
			s6 = v6
			s61 = v61
			s72 = v72
			s82 = v82
			s98 = v98
			s112 = v112
			s126 = v126
			s140 = v140
			s147 = v147
			s154 = v154
			s162 = v162
			s170 = v170
			s178 = v178
			s186 = v186
			s194 = v194
			s201 = v201
			s208 = v208
			s216 = v216
			s224 = v224
			s248 = v248
			s254 = v254
			s259 = v259
			s264 = v264
			s269 = v269
			s274 = v274
			s279 = v279
			s283 = v283
			s288 = v288
			s292 = v292
			s297 = v297
			s302 = v302
			s306 = v306
			s309 = v309
			s312 = v312
			s315 = v315
			s318 = v318
			s321 = v321
			s324 = v324
			s327 = v327
			s330 = v330
			s333 = v333
			s336 = v336
			s339 = v339
			s342 = v342
			s349 = v349
			s354 = v354
			s357 = v357
			s3 = 0x0
		case 0x4:
			v6 := v0
			var v34 uint64
			if v33 != 0 {
				v34 = 0x7
			} else {
				v34 = 0x4
			}
			v57 := v34
			v58 := v57
			v59 := v58
			v60 := v59
			v61 := v60
			v72 := v71
			v73 := 0x0 & v26
			var v82 uint64
			if v73 != 0 {
				v82 = v78
			} else {
				v82 = v81
			}
			v85 := 0x0 & v84
			var v98 uint64
			if v85 != 0 {
				v98 = v94
			} else {
				v98 = v97
			}
			v99 := 0x0 & v37
			var v112 uint64
			if v99 != 0 {
				v112 = v108
			} else {
				v112 = v111
			}
			v113 := 0x1 & v33
			v114 := 0x0 & v42
			v115 := (v113 | v114)
			v116 := 0x0 & v23
			v117 := (v115 | v116)
			var v126 uint64
			if v117 != 0 {
				v126 = v122
			} else {
				v126 = v125
			}
			v140 := v139
			v147 := v146
			v154 := v153
			v162 := v161
			v170 := v169
			v178 := v177
			v186 := v185
			v194 := v193
			v201 := v200
			v208 := v207
			v216 := v215
			v224 := v223
			v248 := v247
			var v250 uint64
			if v61 == 0x1 {
				v250 = 1
			}
			v251 := 0x0 & v250
			var v254 uint64
			if v251 != 0 {
				v254 = v253
			} else {
				v254 = v249
			}
			var v256 uint64
			if v61 == 0x2 {
				v256 = 1
			}
			v257 := 0x0 & v256
			var v259 uint64
			if v257 != 0 {
				v259 = v258
			} else {
				v259 = v255
			}
			var v261 uint64
			if v61 == 0x3 {
				v261 = 1
			}
			v262 := 0x0 & v261
			var v264 uint64
			if v262 != 0 {
				v264 = v263
			} else {
				v264 = v260
			}
			var v266 uint64
			if v61 == 0x7 {
				v266 = 1
			}
			v267 := 0x0 & v266
			var v269 uint64
			if v267 != 0 {
				v269 = v268
			} else {
				v269 = v265
			}
			var v271 uint64
			if v61 == 0x4 {
				v271 = 1
			}
			v272 := 0x0 & v271
			var v274 uint64
			if v272 != 0 {
				v274 = v273
			} else {
				v274 = v270
			}
			var v276 uint64
			if v61 == 0x5 {
				v276 = 1
			}
			v277 := 0x0 & v276
			var v279 uint64
			if v277 != 0 {
				v279 = v278
			} else {
				v279 = v275
			}
			v281 := 0x1 & v266
			var v283 uint64
			if v281 != 0 {
				v283 = v282
			} else {
				v283 = v280
			}
			var v285 uint64
			if v61 == 0x6 {
				v285 = 1
			}
			v286 := 0x0 & v285
			var v288 uint64
			if v286 != 0 {
				v288 = v287
			} else {
				v288 = v284
			}
			v290 := 0x0 & v266
			var v292 uint64
			if v290 != 0 {
				v292 = v291
			} else {
				v292 = v289
			}
			var v294 uint64
			if v61 == 0x8 {
				v294 = 1
			}
			v295 := 0x0 & v294
			var v297 uint64
			if v295 != 0 {
				v297 = v296
			} else {
				v297 = v293
			}
			var v299 uint64
			if v61 == 0x9 {
				v299 = 1
			}
			v300 := 0x0 & v299
			var v302 uint64
			if v300 != 0 {
				v302 = v301
			} else {
				v302 = v298
			}
			v304 := 0x0 & v250
			var v306 uint64
			if v304 != 0 {
				v306 = v305
			} else {
				v306 = v303
			}
			v309 := v307
			v312 := v310
			v315 := v313
			var v318 uint64
			if v73 != 0 {
				v318 = v317
			} else {
				v318 = v316
			}
			var v321 uint64
			if v73 != 0 {
				v321 = v320
			} else {
				v321 = v319
			}
			var v324 uint64
			if v73 != 0 {
				v324 = v323
			} else {
				v324 = v322
			}
			var v327 uint64
			if v85 != 0 {
				v327 = v326
			} else {
				v327 = v325
			}
			var v330 uint64
			if v85 != 0 {
				v330 = v329
			} else {
				v330 = v328
			}
			var v333 uint64
			if v85 != 0 {
				v333 = v332
			} else {
				v333 = v331
			}
			var v336 uint64
			if v99 != 0 {
				v336 = v335
			} else {
				v336 = v334
			}
			var v339 uint64
			if v99 != 0 {
				v339 = v338
			} else {
				v339 = v337
			}
			var v342 uint64
			if v99 != 0 {
				v342 = v341
			} else {
				v342 = v340
			}
			v344 := v117 & v119
			v346 := v117 & v345
			v347 := (v344 | v346)
			var v349 uint64
			if v347 != 0 {
				v349 = v348
			} else {
				v349 = v343
			}
			var v353 uint64
			if v344 != 0 {
				v353 = v352
			} else {
				v353 = v350
			}
			var v354 uint64
			if v346 != 0 {
				v354 = v351
			} else {
				v354 = v353
			}
			var v357 uint64
			if v347 != 0 {
				v357 = v356
			} else {
				v357 = v355
			}
			s358 = 0x0
			s6 = v6
			s61 = v61
			s72 = v72
			s82 = v82
			s98 = v98
			s112 = v112
			s126 = v126
			s140 = v140
			s147 = v147
			s154 = v154
			s162 = v162
			s170 = v170
			s178 = v178
			s186 = v186
			s194 = v194
			s201 = v201
			s208 = v208
			s216 = v216
			s224 = v224
			s248 = v248
			s254 = v254
			s259 = v259
			s264 = v264
			s269 = v269
			s274 = v274
			s279 = v279
			s283 = v283
			s288 = v288
			s292 = v292
			s297 = v297
			s302 = v302
			s306 = v306
			s309 = v309
			s312 = v312
			s315 = v315
			s318 = v318
			s321 = v321
			s324 = v324
			s327 = v327
			s330 = v330
			s333 = v333
			s336 = v336
			s339 = v339
			s342 = v342
			s349 = v349
			s354 = v354
			s357 = v357
			s3 = 0x0
		case 0x5:
			v6 := v0
			var v39 uint64
			if v37 != 0 {
				v39 = 0x6
			} else {
				v39 = 0x5
			}
			v56 := v39
			v57 := v56
			v58 := v57
			v59 := v58
			v60 := v59
			v61 := v60
			v72 := v71
			v73 := 0x0 & v26
			var v82 uint64
			if v73 != 0 {
				v82 = v78
			} else {
				v82 = v81
			}
			v85 := 0x0 & v84
			var v98 uint64
			if v85 != 0 {
				v98 = v94
			} else {
				v98 = v97
			}
			v99 := 0x1 & v37
			var v112 uint64
			if v99 != 0 {
				v112 = v108
			} else {
				v112 = v111
			}
			v113 := 0x0 & v33
			v114 := 0x0 & v42
			v115 := (v113 | v114)
			v116 := 0x0 & v23
			v117 := (v115 | v116)
			var v126 uint64
			if v117 != 0 {
				v126 = v122
			} else {
				v126 = v125
			}
			v140 := v127
			v147 := v141
			v154 := v148
			v162 := v155
			v170 := v163
			v178 := v171
			v186 := v179
			v194 := v187
			v201 := v195
			v208 := v202
			v216 := v209
			v224 := v217
			v248 := v225
			var v250 uint64
			if v61 == 0x1 {
				v250 = 1
			}
			v251 := 0x0 & v250
			var v254 uint64
			if v251 != 0 {
				v254 = v253
			} else {
				v254 = v249
			}
			var v256 uint64
			if v61 == 0x2 {
				v256 = 1
			}
			v257 := 0x0 & v256
			var v259 uint64
			if v257 != 0 {
				v259 = v258
			} else {
				v259 = v255
			}
			var v261 uint64
			if v61 == 0x3 {
				v261 = 1
			}
			v262 := 0x0 & v261
			var v264 uint64
			if v262 != 0 {
				v264 = v263
			} else {
				v264 = v260
			}
			var v266 uint64
			if v61 == 0x7 {
				v266 = 1
			}
			v267 := 0x0 & v266
			var v269 uint64
			if v267 != 0 {
				v269 = v268
			} else {
				v269 = v265
			}
			var v271 uint64
			if v61 == 0x4 {
				v271 = 1
			}
			v272 := 0x0 & v271
			var v274 uint64
			if v272 != 0 {
				v274 = v273
			} else {
				v274 = v270
			}
			var v276 uint64
			if v61 == 0x5 {
				v276 = 1
			}
			v277 := 0x0 & v276
			var v279 uint64
			if v277 != 0 {
				v279 = v278
			} else {
				v279 = v275
			}
			v281 := 0x0 & v266
			var v283 uint64
			if v281 != 0 {
				v283 = v282
			} else {
				v283 = v280
			}
			var v285 uint64
			if v61 == 0x6 {
				v285 = 1
			}
			v286 := 0x1 & v285
			var v288 uint64
			if v286 != 0 {
				v288 = v287
			} else {
				v288 = v284
			}
			v290 := 0x0 & v266
			var v292 uint64
			if v290 != 0 {
				v292 = v291
			} else {
				v292 = v289
			}
			var v294 uint64
			if v61 == 0x8 {
				v294 = 1
			}
			v295 := 0x0 & v294
			var v297 uint64
			if v295 != 0 {
				v297 = v296
			} else {
				v297 = v293
			}
			var v299 uint64
			if v61 == 0x9 {
				v299 = 1
			}
			v300 := 0x0 & v299
			var v302 uint64
			if v300 != 0 {
				v302 = v301
			} else {
				v302 = v298
			}
			v304 := 0x0 & v250
			var v306 uint64
			if v304 != 0 {
				v306 = v305
			} else {
				v306 = v303
			}
			v309 := v307
			v312 := v310
			v315 := v313
			var v318 uint64
			if v73 != 0 {
				v318 = v317
			} else {
				v318 = v316
			}
			var v321 uint64
			if v73 != 0 {
				v321 = v320
			} else {
				v321 = v319
			}
			var v324 uint64
			if v73 != 0 {
				v324 = v323
			} else {
				v324 = v322
			}
			var v327 uint64
			if v85 != 0 {
				v327 = v326
			} else {
				v327 = v325
			}
			var v330 uint64
			if v85 != 0 {
				v330 = v329
			} else {
				v330 = v328
			}
			var v333 uint64
			if v85 != 0 {
				v333 = v332
			} else {
				v333 = v331
			}
			var v336 uint64
			if v99 != 0 {
				v336 = v335
			} else {
				v336 = v334
			}
			var v339 uint64
			if v99 != 0 {
				v339 = v338
			} else {
				v339 = v337
			}
			var v342 uint64
			if v99 != 0 {
				v342 = v341
			} else {
				v342 = v340
			}
			v344 := v117 & v119
			v346 := v117 & v345
			v347 := (v344 | v346)
			var v349 uint64
			if v347 != 0 {
				v349 = v348
			} else {
				v349 = v343
			}
			var v353 uint64
			if v344 != 0 {
				v353 = v352
			} else {
				v353 = v350
			}
			var v354 uint64
			if v346 != 0 {
				v354 = v351
			} else {
				v354 = v353
			}
			var v357 uint64
			if v347 != 0 {
				v357 = v356
			} else {
				v357 = v355
			}
			s358 = 0x0
			s6 = v6
			s61 = v61
			s72 = v72
			s82 = v82
			s98 = v98
			s112 = v112
			s126 = v126
			s140 = v140
			s147 = v147
			s154 = v154
			s162 = v162
			s170 = v170
			s178 = v178
			s186 = v186
			s194 = v194
			s201 = v201
			s208 = v208
			s216 = v216
			s224 = v224
			s248 = v248
			s254 = v254
			s259 = v259
			s264 = v264
			s269 = v269
			s274 = v274
			s279 = v279
			s283 = v283
			s288 = v288
			s292 = v292
			s297 = v297
			s302 = v302
			s306 = v306
			s309 = v309
			s312 = v312
			s315 = v315
			s318 = v318
			s321 = v321
			s324 = v324
			s327 = v327
			s330 = v330
			s333 = v333
			s336 = v336
			s339 = v339
			s342 = v342
			s349 = v349
			s354 = v354
			s357 = v357
			s3 = 0x0
		case 0x6:
			v6 := v0
			var v43 uint64
			if v42 != 0 {
				v43 = 0x7
			} else {
				v43 = 0x6
			}
			v55 := v43
			v56 := v55
			v57 := v56
			v58 := v57
			v59 := v58
			v60 := v59
			v61 := v60
			v72 := v71
			v73 := 0x0 & v26
			var v82 uint64
			if v73 != 0 {
				v82 = v78
			} else {
				v82 = v81
			}
			v85 := 0x0 & v84
			var v98 uint64
			if v85 != 0 {
				v98 = v94
			} else {
				v98 = v97
			}
			v99 := 0x0 & v37
			var v112 uint64
			if v99 != 0 {
				v112 = v108
			} else {
				v112 = v111
			}
			v113 := 0x0 & v33
			v114 := 0x1 & v42
			v115 := (v113 | v114)
			v116 := 0x0 & v23
			v117 := (v115 | v116)
			var v126 uint64
			if v117 != 0 {
				v126 = v122
			} else {
				v126 = v125
			}
			v140 := v139
			v147 := v146
			v154 := v153
			v162 := v161
			v170 := v169
			v178 := v177
			v186 := v185
			v194 := v193
			v201 := v200
			v208 := v207
			v216 := v215
			v224 := v223
			v248 := v247
			var v250 uint64
			if v61 == 0x1 {
				v250 = 1
			}
			v251 := 0x0 & v250
			var v254 uint64
			if v251 != 0 {
				v254 = v253
			} else {
				v254 = v249
			}
			var v256 uint64
			if v61 == 0x2 {
				v256 = 1
			}
			v257 := 0x0 & v256
			var v259 uint64
			if v257 != 0 {
				v259 = v258
			} else {
				v259 = v255
			}
			var v261 uint64
			if v61 == 0x3 {
				v261 = 1
			}
			v262 := 0x0 & v261
			var v264 uint64
			if v262 != 0 {
				v264 = v263
			} else {
				v264 = v260
			}
			var v266 uint64
			if v61 == 0x7 {
				v266 = 1
			}
			v267 := 0x0 & v266
			var v269 uint64
			if v267 != 0 {
				v269 = v268
			} else {
				v269 = v265
			}
			var v271 uint64
			if v61 == 0x4 {
				v271 = 1
			}
			v272 := 0x0 & v271
			var v274 uint64
			if v272 != 0 {
				v274 = v273
			} else {
				v274 = v270
			}
			var v276 uint64
			if v61 == 0x5 {
				v276 = 1
			}
			v277 := 0x0 & v276
			var v279 uint64
			if v277 != 0 {
				v279 = v278
			} else {
				v279 = v275
			}
			v281 := 0x0 & v266
			var v283 uint64
			if v281 != 0 {
				v283 = v282
			} else {
				v283 = v280
			}
			var v285 uint64
			if v61 == 0x6 {
				v285 = 1
			}
			v286 := 0x0 & v285
			var v288 uint64
			if v286 != 0 {
				v288 = v287
			} else {
				v288 = v284
			}
			v290 := 0x1 & v266
			var v292 uint64
			if v290 != 0 {
				v292 = v291
			} else {
				v292 = v289
			}
			var v294 uint64
			if v61 == 0x8 {
				v294 = 1
			}
			v295 := 0x0 & v294
			var v297 uint64
			if v295 != 0 {
				v297 = v296
			} else {
				v297 = v293
			}
			var v299 uint64
			if v61 == 0x9 {
				v299 = 1
			}
			v300 := 0x0 & v299
			var v302 uint64
			if v300 != 0 {
				v302 = v301
			} else {
				v302 = v298
			}
			v304 := 0x0 & v250
			var v306 uint64
			if v304 != 0 {
				v306 = v305
			} else {
				v306 = v303
			}
			v309 := v307
			v312 := v310
			v315 := v313
			var v318 uint64
			if v73 != 0 {
				v318 = v317
			} else {
				v318 = v316
			}
			var v321 uint64
			if v73 != 0 {
				v321 = v320
			} else {
				v321 = v319
			}
			var v324 uint64
			if v73 != 0 {
				v324 = v323
			} else {
				v324 = v322
			}
			var v327 uint64
			if v85 != 0 {
				v327 = v326
			} else {
				v327 = v325
			}
			var v330 uint64
			if v85 != 0 {
				v330 = v329
			} else {
				v330 = v328
			}
			var v333 uint64
			if v85 != 0 {
				v333 = v332
			} else {
				v333 = v331
			}
			var v336 uint64
			if v99 != 0 {
				v336 = v335
			} else {
				v336 = v334
			}
			var v339 uint64
			if v99 != 0 {
				v339 = v338
			} else {
				v339 = v337
			}
			var v342 uint64
			if v99 != 0 {
				v342 = v341
			} else {
				v342 = v340
			}
			v344 := v117 & v119
			v346 := v117 & v345
			v347 := (v344 | v346)
			var v349 uint64
			if v347 != 0 {
				v349 = v348
			} else {
				v349 = v343
			}
			var v353 uint64
			if v344 != 0 {
				v353 = v352
			} else {
				v353 = v350
			}
			var v354 uint64
			if v346 != 0 {
				v354 = v351
			} else {
				v354 = v353
			}
			var v357 uint64
			if v347 != 0 {
				v357 = v356
			} else {
				v357 = v355
			}
			s358 = 0x0
			s6 = v6
			s61 = v61
			s72 = v72
			s82 = v82
			s98 = v98
			s112 = v112
			s126 = v126
			s140 = v140
			s147 = v147
			s154 = v154
			s162 = v162
			s170 = v170
			s178 = v178
			s186 = v186
			s194 = v194
			s201 = v201
			s208 = v208
			s216 = v216
			s224 = v224
			s248 = v248
			s254 = v254
			s259 = v259
			s264 = v264
			s269 = v269
			s274 = v274
			s279 = v279
			s283 = v283
			s288 = v288
			s292 = v292
			s297 = v297
			s302 = v302
			s306 = v306
			s309 = v309
			s312 = v312
			s315 = v315
			s318 = v318
			s321 = v321
			s324 = v324
			s327 = v327
			s330 = v330
			s333 = v333
			s336 = v336
			s339 = v339
			s342 = v342
			s349 = v349
			s354 = v354
			s357 = v357
			s3 = 0x0
		case 0x7:
			v6 := v0
			var v47 uint64
			if v46 != 0 {
				v47 = 0x8
			} else {
				v47 = 0x7
			}
			v54 := v47
			v55 := v54
			v56 := v55
			v57 := v56
			v58 := v57
			v59 := v58
			v60 := v59
			v61 := v60
			v72 := v71
			v73 := 0x0 & v26
			var v82 uint64
			if v73 != 0 {
				v82 = v78
			} else {
				v82 = v81
			}
			v85 := 0x0 & v84
			var v98 uint64
			if v85 != 0 {
				v98 = v94
			} else {
				v98 = v97
			}
			v99 := 0x0 & v37
			var v112 uint64
			if v99 != 0 {
				v112 = v108
			} else {
				v112 = v111
			}
			v113 := 0x0 & v33
			v114 := 0x0 & v42
			v115 := (v113 | v114)
			v116 := 0x0 & v23
			v117 := (v115 | v116)
			var v126 uint64
			if v117 != 0 {
				v126 = v122
			} else {
				v126 = v125
			}
			v140 := v139
			v147 := v146
			v154 := v153
			v162 := v161
			v170 := v169
			v178 := v177
			v186 := v185
			v194 := v193
			v201 := v200
			v208 := v207
			v216 := v215
			v224 := v223
			v248 := v247
			var v250 uint64
			if v61 == 0x1 {
				v250 = 1
			}
			v251 := 0x0 & v250
			var v254 uint64
			if v251 != 0 {
				v254 = v253
			} else {
				v254 = v249
			}
			var v256 uint64
			if v61 == 0x2 {
				v256 = 1
			}
			v257 := 0x0 & v256
			var v259 uint64
			if v257 != 0 {
				v259 = v258
			} else {
				v259 = v255
			}
			var v261 uint64
			if v61 == 0x3 {
				v261 = 1
			}
			v262 := 0x0 & v261
			var v264 uint64
			if v262 != 0 {
				v264 = v263
			} else {
				v264 = v260
			}
			var v266 uint64
			if v61 == 0x7 {
				v266 = 1
			}
			v267 := 0x0 & v266
			var v269 uint64
			if v267 != 0 {
				v269 = v268
			} else {
				v269 = v265
			}
			var v271 uint64
			if v61 == 0x4 {
				v271 = 1
			}
			v272 := 0x0 & v271
			var v274 uint64
			if v272 != 0 {
				v274 = v273
			} else {
				v274 = v270
			}
			var v276 uint64
			if v61 == 0x5 {
				v276 = 1
			}
			v277 := 0x0 & v276
			var v279 uint64
			if v277 != 0 {
				v279 = v278
			} else {
				v279 = v275
			}
			v281 := 0x0 & v266
			var v283 uint64
			if v281 != 0 {
				v283 = v282
			} else {
				v283 = v280
			}
			var v285 uint64
			if v61 == 0x6 {
				v285 = 1
			}
			v286 := 0x0 & v285
			var v288 uint64
			if v286 != 0 {
				v288 = v287
			} else {
				v288 = v284
			}
			v290 := 0x0 & v266
			var v292 uint64
			if v290 != 0 {
				v292 = v291
			} else {
				v292 = v289
			}
			var v294 uint64
			if v61 == 0x8 {
				v294 = 1
			}
			v295 := 0x1 & v294
			var v297 uint64
			if v295 != 0 {
				v297 = v296
			} else {
				v297 = v293
			}
			var v299 uint64
			if v61 == 0x9 {
				v299 = 1
			}
			v300 := 0x0 & v299
			var v302 uint64
			if v300 != 0 {
				v302 = v301
			} else {
				v302 = v298
			}
			v304 := 0x0 & v250
			var v306 uint64
			if v304 != 0 {
				v306 = v305
			} else {
				v306 = v303
			}
			v309 := v307
			v312 := v310
			v315 := v313
			var v318 uint64
			if v73 != 0 {
				v318 = v317
			} else {
				v318 = v316
			}
			var v321 uint64
			if v73 != 0 {
				v321 = v320
			} else {
				v321 = v319
			}
			var v324 uint64
			if v73 != 0 {
				v324 = v323
			} else {
				v324 = v322
			}
			var v327 uint64
			if v85 != 0 {
				v327 = v326
			} else {
				v327 = v325
			}
			var v330 uint64
			if v85 != 0 {
				v330 = v329
			} else {
				v330 = v328
			}
			var v333 uint64
			if v85 != 0 {
				v333 = v332
			} else {
				v333 = v331
			}
			var v336 uint64
			if v99 != 0 {
				v336 = v335
			} else {
				v336 = v334
			}
			var v339 uint64
			if v99 != 0 {
				v339 = v338
			} else {
				v339 = v337
			}
			var v342 uint64
			if v99 != 0 {
				v342 = v341
			} else {
				v342 = v340
			}
			v344 := v117 & v119
			v346 := v117 & v345
			v347 := (v344 | v346)
			var v349 uint64
			if v347 != 0 {
				v349 = v348
			} else {
				v349 = v343
			}
			var v353 uint64
			if v344 != 0 {
				v353 = v352
			} else {
				v353 = v350
			}
			var v354 uint64
			if v346 != 0 {
				v354 = v351
			} else {
				v354 = v353
			}
			var v357 uint64
			if v347 != 0 {
				v357 = v356
			} else {
				v357 = v355
			}
			s358 = 0x0
			s6 = v6
			s61 = v61
			s72 = v72
			s82 = v82
			s98 = v98
			s112 = v112
			s126 = v126
			s140 = v140
			s147 = v147
			s154 = v154
			s162 = v162
			s170 = v170
			s178 = v178
			s186 = v186
			s194 = v194
			s201 = v201
			s208 = v208
			s216 = v216
			s224 = v224
			s248 = v248
			s254 = v254
			s259 = v259
			s264 = v264
			s269 = v269
			s274 = v274
			s279 = v279
			s283 = v283
			s288 = v288
			s292 = v292
			s297 = v297
			s302 = v302
			s306 = v306
			s309 = v309
			s312 = v312
			s315 = v315
			s318 = v318
			s321 = v321
			s324 = v324
			s327 = v327
			s330 = v330
			s333 = v333
			s336 = v336
			s339 = v339
			s342 = v342
			s349 = v349
			s354 = v354
			s357 = v357
			s3 = 0x0
		case 0x8:
			v6 := v5
			v53 := v52
			v54 := v53
			v55 := v54
			v56 := v55
			v57 := v56
			v58 := v57
			v59 := v58
			v60 := v59
			v61 := v60
			v72 := v71
			v73 := 0x0 & v26
			var v82 uint64
			if v73 != 0 {
				v82 = v78
			} else {
				v82 = v81
			}
			v85 := 0x0 & v84
			var v98 uint64
			if v85 != 0 {
				v98 = v94
			} else {
				v98 = v97
			}
			v99 := 0x0 & v37
			var v112 uint64
			if v99 != 0 {
				v112 = v108
			} else {
				v112 = v111
			}
			v113 := 0x0 & v33
			v114 := 0x0 & v42
			v115 := (v113 | v114)
			v116 := 0x0 & v23
			v117 := (v115 | v116)
			var v126 uint64
			if v117 != 0 {
				v126 = v122
			} else {
				v126 = v125
			}
			v140 := v127
			v147 := v141
			v154 := v148
			v162 := v155
			v170 := v163
			v178 := v171
			v186 := v179
			v194 := v187
			v201 := v195
			v208 := v202
			v216 := v209
			v224 := v217
			v248 := v225
			var v250 uint64
			if v61 == 0x1 {
				v250 = 1
			}
			v251 := 0x0 & v250
			var v254 uint64
			if v251 != 0 {
				v254 = v253
			} else {
				v254 = v249
			}
			var v256 uint64
			if v61 == 0x2 {
				v256 = 1
			}
			v257 := 0x0 & v256
			var v259 uint64
			if v257 != 0 {
				v259 = v258
			} else {
				v259 = v255
			}
			var v261 uint64
			if v61 == 0x3 {
				v261 = 1
			}
			v262 := 0x0 & v261
			var v264 uint64
			if v262 != 0 {
				v264 = v263
			} else {
				v264 = v260
			}
			var v266 uint64
			if v61 == 0x7 {
				v266 = 1
			}
			v267 := 0x0 & v266
			var v269 uint64
			if v267 != 0 {
				v269 = v268
			} else {
				v269 = v265
			}
			var v271 uint64
			if v61 == 0x4 {
				v271 = 1
			}
			v272 := 0x0 & v271
			var v274 uint64
			if v272 != 0 {
				v274 = v273
			} else {
				v274 = v270
			}
			var v276 uint64
			if v61 == 0x5 {
				v276 = 1
			}
			v277 := 0x0 & v276
			var v279 uint64
			if v277 != 0 {
				v279 = v278
			} else {
				v279 = v275
			}
			v281 := 0x0 & v266
			var v283 uint64
			if v281 != 0 {
				v283 = v282
			} else {
				v283 = v280
			}
			var v285 uint64
			if v61 == 0x6 {
				v285 = 1
			}
			v286 := 0x0 & v285
			var v288 uint64
			if v286 != 0 {
				v288 = v287
			} else {
				v288 = v284
			}
			v290 := 0x0 & v266
			var v292 uint64
			if v290 != 0 {
				v292 = v291
			} else {
				v292 = v289
			}
			var v294 uint64
			if v61 == 0x8 {
				v294 = 1
			}
			v295 := 0x0 & v294
			var v297 uint64
			if v295 != 0 {
				v297 = v296
			} else {
				v297 = v293
			}
			var v299 uint64
			if v61 == 0x9 {
				v299 = 1
			}
			v300 := 0x1 & v299
			var v302 uint64
			if v300 != 0 {
				v302 = v301
			} else {
				v302 = v298
			}
			v304 := 0x1 & v250
			var v306 uint64
			if v304 != 0 {
				v306 = v305
			} else {
				v306 = v303
			}
			v309 := v307
			v312 := v310
			v315 := v313
			var v318 uint64
			if v73 != 0 {
				v318 = v317
			} else {
				v318 = v316
			}
			var v321 uint64
			if v73 != 0 {
				v321 = v320
			} else {
				v321 = v319
			}
			var v324 uint64
			if v73 != 0 {
				v324 = v323
			} else {
				v324 = v322
			}
			var v327 uint64
			if v85 != 0 {
				v327 = v326
			} else {
				v327 = v325
			}
			var v330 uint64
			if v85 != 0 {
				v330 = v329
			} else {
				v330 = v328
			}
			var v333 uint64
			if v85 != 0 {
				v333 = v332
			} else {
				v333 = v331
			}
			var v336 uint64
			if v99 != 0 {
				v336 = v335
			} else {
				v336 = v334
			}
			var v339 uint64
			if v99 != 0 {
				v339 = v338
			} else {
				v339 = v337
			}
			var v342 uint64
			if v99 != 0 {
				v342 = v341
			} else {
				v342 = v340
			}
			v344 := v117 & v119
			v346 := v117 & v345
			v347 := (v344 | v346)
			var v349 uint64
			if v347 != 0 {
				v349 = v348
			} else {
				v349 = v343
			}
			var v353 uint64
			if v344 != 0 {
				v353 = v352
			} else {
				v353 = v350
			}
			var v354 uint64
			if v346 != 0 {
				v354 = v351
			} else {
				v354 = v353
			}
			var v357 uint64
			if v347 != 0 {
				v357 = v356
			} else {
				v357 = v355
			}
			s358 = 0x0
			s6 = v6
			s61 = v61
			s72 = v72
			s82 = v82
			s98 = v98
			s112 = v112
			s126 = v126
			s140 = v140
			s147 = v147
			s154 = v154
			s162 = v162
			s170 = v170
			s178 = v178
			s186 = v186
			s194 = v194
			s201 = v201
			s208 = v208
			s216 = v216
			s224 = v224
			s248 = v248
			s254 = v254
			s259 = v259
			s264 = v264
			s269 = v269
			s274 = v274
			s279 = v279
			s283 = v283
			s288 = v288
			s292 = v292
			s297 = v297
			s302 = v302
			s306 = v306
			s309 = v309
			s312 = v312
			s315 = v315
			s318 = v318
			s321 = v321
			s324 = v324
			s327 = v327
			s330 = v330
			s333 = v333
			s336 = v336
			s339 = v339
			s342 = v342
			s349 = v349
			s354 = v354
			s357 = v357
			s3 = 0x1
		case 0x9:
			v6 := v0
			v72 := v71
			v73 := 0x0 & v26
			var v82 uint64
			if v73 != 0 {
				v82 = v78
			} else {
				v82 = v81
			}
			v85 := 0x0 & v84
			var v98 uint64
			if v85 != 0 {
				v98 = v94
			} else {
				v98 = v97
			}
			v99 := 0x0 & v37
			var v112 uint64
			if v99 != 0 {
				v112 = v108
			} else {
				v112 = v111
			}
			v113 := 0x0 & v33
			v114 := 0x0 & v42
			v115 := (v113 | v114)
			v116 := 0x0 & v23
			v117 := (v115 | v116)
			var v126 uint64
			if v117 != 0 {
				v126 = v122
			} else {
				v126 = v125
			}
			v140 := v127
			v147 := v141
			v154 := v148
			v162 := v155
			v170 := v163
			v178 := v171
			v186 := v179
			v194 := v187
			v201 := v195
			v208 := v202
			v216 := v209
			v224 := v217
			v248 := v225
			v254 := v249
			v259 := v255
			v264 := v260
			v269 := v265
			v274 := v270
			v279 := v275
			v283 := v280
			v288 := v284
			v292 := v289
			v297 := v293
			v302 := v298
			v306 := v303
			v309 := v307
			v312 := v310
			v315 := v313
			var v318 uint64
			if v73 != 0 {
				v318 = v317
			} else {
				v318 = v316
			}
			var v321 uint64
			if v73 != 0 {
				v321 = v320
			} else {
				v321 = v319
			}
			var v324 uint64
			if v73 != 0 {
				v324 = v323
			} else {
				v324 = v322
			}
			var v327 uint64
			if v85 != 0 {
				v327 = v326
			} else {
				v327 = v325
			}
			var v330 uint64
			if v85 != 0 {
				v330 = v329
			} else {
				v330 = v328
			}
			var v333 uint64
			if v85 != 0 {
				v333 = v332
			} else {
				v333 = v331
			}
			var v336 uint64
			if v99 != 0 {
				v336 = v335
			} else {
				v336 = v334
			}
			var v339 uint64
			if v99 != 0 {
				v339 = v338
			} else {
				v339 = v337
			}
			var v342 uint64
			if v99 != 0 {
				v342 = v341
			} else {
				v342 = v340
			}
			v344 := v117 & v119
			v346 := v117 & v345
			v347 := (v344 | v346)
			var v349 uint64
			if v347 != 0 {
				v349 = v348
			} else {
				v349 = v343
			}
			var v353 uint64
			if v344 != 0 {
				v353 = v352
			} else {
				v353 = v350
			}
			var v354 uint64
			if v346 != 0 {
				v354 = v351
			} else {
				v354 = v353
			}
			var v357 uint64
			if v347 != 0 {
				v357 = v356
			} else {
				v357 = v355
			}
			s358 = 0x1
			s6 = v6
			s61 = 0x9
			s72 = v72
			s82 = v82
			s98 = v98
			s112 = v112
			s126 = v126
			s140 = v140
			s147 = v147
			s154 = v154
			s162 = v162
			s170 = v170
			s178 = v178
			s186 = v186
			s194 = v194
			s201 = v201
			s208 = v208
			s216 = v216
			s224 = v224
			s248 = v248
			s254 = v254
			s259 = v259
			s264 = v264
			s269 = v269
			s274 = v274
			s279 = v279
			s283 = v283
			s288 = v288
			s292 = v292
			s297 = v297
			s302 = v302
			s306 = v306
			s309 = v309
			s312 = v312
			s315 = v315
			s318 = v318
			s321 = v321
			s324 = v324
			s327 = v327
			s330 = v330
			s333 = v333
			s336 = v336
			s339 = v339
			s342 = v342
			s349 = v349
			s354 = v354
			s357 = v357
			s3 = 0x0
		default:
			var v3 uint64
			if v1 == 0x8 {
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
			var v31 uint64
			if v1 == 0x4 {
				v31 = 1
			}
			var v34 uint64
			if v33 != 0 {
				v34 = 0x7
			} else {
				v34 = v1
			}
			var v35 uint64
			if v1 == 0x5 {
				v35 = 1
			}
			var v39 uint64
			if v37 != 0 {
				v39 = 0x6
			} else {
				v39 = v1
			}
			var v40 uint64
			if v1 == 0x6 {
				v40 = 1
			}
			var v43 uint64
			if v42 != 0 {
				v43 = 0x7
			} else {
				v43 = v1
			}
			var v44 uint64
			if v1 == 0x7 {
				v44 = 1
			}
			var v47 uint64
			if v46 != 0 {
				v47 = 0x8
			} else {
				v47 = v1
			}
			var v53 uint64
			if v3 != 0 {
				v53 = v52
			} else {
				v53 = v1
			}
			var v54 uint64
			if v44 != 0 {
				v54 = v47
			} else {
				v54 = v53
			}
			var v55 uint64
			if v40 != 0 {
				v55 = v43
			} else {
				v55 = v54
			}
			var v56 uint64
			if v35 != 0 {
				v56 = v39
			} else {
				v56 = v55
			}
			var v57 uint64
			if v31 != 0 {
				v57 = v34
			} else {
				v57 = v56
			}
			var v58 uint64
			if v18 != 0 {
				v58 = v30
			} else {
				v58 = v57
			}
			var v59 uint64
			if v12 != 0 {
				v59 = v17
			} else {
				v59 = v58
			}
			var v60 uint64
			if v10 != 0 {
				v60 = 0x2
			} else {
				v60 = v59
			}
			var v61 uint64
			if v8 != 0 {
				v61 = 0x1
			} else {
				v61 = v60
			}
			var v72 uint64
			if v10 != 0 {
				v72 = v67
			} else {
				v72 = v71
			}
			v73 := v18 & v26
			var v82 uint64
			if v73 != 0 {
				v82 = v78
			} else {
				v82 = v81
			}
			v85 := v18 & v84
			var v98 uint64
			if v85 != 0 {
				v98 = v94
			} else {
				v98 = v97
			}
			v99 := v35 & v37
			var v112 uint64
			if v99 != 0 {
				v112 = v108
			} else {
				v112 = v111
			}
			v113 := v31 & v33
			v114 := v40 & v42
			v115 := (v113 | v114)
			v116 := v18 & v23
			v117 := (v115 | v116)
			var v126 uint64
			if v117 != 0 {
				v126 = v122
			} else {
				v126 = v125
			}
			v128 := (v31 | v40)
			v129 := (v128 | v44)
			var v140 uint64
			if v129 != 0 {
				v140 = v139
			} else {
				v140 = v127
			}
			var v147 uint64
			if v129 != 0 {
				v147 = v146
			} else {
				v147 = v141
			}
			var v154 uint64
			if v129 != 0 {
				v154 = v153
			} else {
				v154 = v148
			}
			var v162 uint64
			if v129 != 0 {
				v162 = v161
			} else {
				v162 = v155
			}
			var v170 uint64
			if v129 != 0 {
				v170 = v169
			} else {
				v170 = v163
			}
			var v178 uint64
			if v129 != 0 {
				v178 = v177
			} else {
				v178 = v171
			}
			var v186 uint64
			if v129 != 0 {
				v186 = v185
			} else {
				v186 = v179
			}
			var v194 uint64
			if v129 != 0 {
				v194 = v193
			} else {
				v194 = v187
			}
			var v201 uint64
			if v129 != 0 {
				v201 = v200
			} else {
				v201 = v195
			}
			var v208 uint64
			if v129 != 0 {
				v208 = v207
			} else {
				v208 = v202
			}
			var v216 uint64
			if v129 != 0 {
				v216 = v215
			} else {
				v216 = v209
			}
			var v224 uint64
			if v129 != 0 {
				v224 = v223
			} else {
				v224 = v217
			}
			var v248 uint64
			if v129 != 0 {
				v248 = v247
			} else {
				v248 = v225
			}
			var v250 uint64
			if v61 == 0x1 {
				v250 = 1
			}
			v251 := v8 & v250
			var v254 uint64
			if v251 != 0 {
				v254 = v253
			} else {
				v254 = v249
			}
			var v256 uint64
			if v61 == 0x2 {
				v256 = 1
			}
			v257 := v10 & v256
			var v259 uint64
			if v257 != 0 {
				v259 = v258
			} else {
				v259 = v255
			}
			var v261 uint64
			if v61 == 0x3 {
				v261 = 1
			}
			v262 := v12 & v261
			var v264 uint64
			if v262 != 0 {
				v264 = v263
			} else {
				v264 = v260
			}
			var v266 uint64
			if v61 == 0x7 {
				v266 = 1
			}
			v267 := v18 & v266
			var v269 uint64
			if v267 != 0 {
				v269 = v268
			} else {
				v269 = v265
			}
			var v271 uint64
			if v61 == 0x4 {
				v271 = 1
			}
			v272 := v18 & v271
			var v274 uint64
			if v272 != 0 {
				v274 = v273
			} else {
				v274 = v270
			}
			var v276 uint64
			if v61 == 0x5 {
				v276 = 1
			}
			v277 := v18 & v276
			var v279 uint64
			if v277 != 0 {
				v279 = v278
			} else {
				v279 = v275
			}
			v281 := v31 & v266
			var v283 uint64
			if v281 != 0 {
				v283 = v282
			} else {
				v283 = v280
			}
			var v285 uint64
			if v61 == 0x6 {
				v285 = 1
			}
			v286 := v35 & v285
			var v288 uint64
			if v286 != 0 {
				v288 = v287
			} else {
				v288 = v284
			}
			v290 := v40 & v266
			var v292 uint64
			if v290 != 0 {
				v292 = v291
			} else {
				v292 = v289
			}
			var v294 uint64
			if v61 == 0x8 {
				v294 = 1
			}
			v295 := v44 & v294
			var v297 uint64
			if v295 != 0 {
				v297 = v296
			} else {
				v297 = v293
			}
			var v299 uint64
			if v61 == 0x9 {
				v299 = 1
			}
			v300 := v3 & v299
			var v302 uint64
			if v300 != 0 {
				v302 = v301
			} else {
				v302 = v298
			}
			v304 := v3 & v250
			var v306 uint64
			if v304 != 0 {
				v306 = v305
			} else {
				v306 = v303
			}
			var v309 uint64
			if v10 != 0 {
				v309 = v308
			} else {
				v309 = v307
			}
			var v312 uint64
			if v10 != 0 {
				v312 = v311
			} else {
				v312 = v310
			}
			var v315 uint64
			if v10 != 0 {
				v315 = v314
			} else {
				v315 = v313
			}
			var v318 uint64
			if v73 != 0 {
				v318 = v317
			} else {
				v318 = v316
			}
			var v321 uint64
			if v73 != 0 {
				v321 = v320
			} else {
				v321 = v319
			}
			var v324 uint64
			if v73 != 0 {
				v324 = v323
			} else {
				v324 = v322
			}
			var v327 uint64
			if v85 != 0 {
				v327 = v326
			} else {
				v327 = v325
			}
			var v330 uint64
			if v85 != 0 {
				v330 = v329
			} else {
				v330 = v328
			}
			var v333 uint64
			if v85 != 0 {
				v333 = v332
			} else {
				v333 = v331
			}
			var v336 uint64
			if v99 != 0 {
				v336 = v335
			} else {
				v336 = v334
			}
			var v339 uint64
			if v99 != 0 {
				v339 = v338
			} else {
				v339 = v337
			}
			var v342 uint64
			if v99 != 0 {
				v342 = v341
			} else {
				v342 = v340
			}
			v344 := v117 & v119
			v346 := v117 & v345
			v347 := (v344 | v346)
			var v349 uint64
			if v347 != 0 {
				v349 = v348
			} else {
				v349 = v343
			}
			var v353 uint64
			if v344 != 0 {
				v353 = v352
			} else {
				v353 = v350
			}
			var v354 uint64
			if v346 != 0 {
				v354 = v351
			} else {
				v354 = v353
			}
			var v357 uint64
			if v347 != 0 {
				v357 = v356
			} else {
				v357 = v355
			}
			var v358 uint64
			if v1 == 0x9 {
				v358 = 1
			}
			s358 = v358
			s6 = v6
			s61 = v61
			s72 = v72
			s82 = v82
			s98 = v98
			s112 = v112
			s126 = v126
			s140 = v140
			s147 = v147
			s154 = v154
			s162 = v162
			s170 = v170
			s178 = v178
			s186 = v186
			s194 = v194
			s201 = v201
			s208 = v208
			s216 = v216
			s224 = v224
			s248 = v248
			s254 = v254
			s259 = v259
			s264 = v264
			s269 = v269
			s274 = v274
			s279 = v279
			s283 = v283
			s288 = v288
			s292 = v292
			s297 = v297
			s302 = v302
			s306 = v306
			s309 = v309
			s312 = v312
			s315 = v315
			s318 = v318
			s321 = v321
			s324 = v324
			s327 = v327
			s330 = v330
			s333 = v333
			s336 = v336
			s339 = v339
			s342 = v342
			s349 = v349
			s354 = v354
			s357 = v357
			s3 = v3
		}
		if s358 != 0 {
			break
		}
		if s3 != 0 {
			if addr := uint64(v0); addr < uint64(len(m1)) {
				m1[addr] = v225
			}
		}
		v0 = s6
		v1 = s61
		v13 = s72
		v32 = s82
		v36 = s98
		v41 = s112
		v45 = s126
		v127 = s140
		v141 = s147
		v148 = s154
		v155 = s162
		v163 = s170
		v171 = s178
		v179 = s186
		v187 = s194
		v195 = s201
		v202 = s208
		v209 = s216
		v217 = s224
		v225 = s248
		v249 = s254
		v255 = s259
		v260 = s264
		v265 = s269
		v270 = s274
		v275 = s279
		v280 = s283
		v284 = s288
		v289 = s292
		v293 = s297
		v298 = s302
		v303 = s306
		v307 = s309
		v310 = s312
		v313 = s315
		v316 = s318
		v319 = s321
		v322 = s324
		v325 = s327
		v328 = s330
		v331 = s333
		v334 = s336
		v337 = s339
		v340 = s342
		v343 = s349
		v350 = s354
		v355 = s357
	}
	vals[0] = v0
	vals[1] = v1
	vals[13] = v13
	vals[32] = v32
	vals[36] = v36
	vals[41] = v41
	vals[45] = v45
	vals[127] = v127
	vals[141] = v141
	vals[148] = v148
	vals[155] = v155
	vals[163] = v163
	vals[171] = v171
	vals[179] = v179
	vals[187] = v187
	vals[195] = v195
	vals[202] = v202
	vals[209] = v209
	vals[217] = v217
	vals[225] = v225
	vals[249] = v249
	vals[255] = v255
	vals[260] = v260
	vals[265] = v265
	vals[270] = v270
	vals[275] = v275
	vals[280] = v280
	vals[284] = v284
	vals[289] = v289
	vals[293] = v293
	vals[298] = v298
	vals[303] = v303
	vals[307] = v307
	vals[310] = v310
	vals[313] = v313
	vals[316] = v316
	vals[319] = v319
	vals[322] = v322
	vals[325] = v325
	vals[328] = v328
	vals[331] = v331
	vals[334] = v334
	vals[337] = v337
	vals[340] = v340
	vals[343] = v343
	vals[350] = v350
	vals[355] = v355
	return n
}

func run_h264_slice_all(vals []uint64, mems [][]uint64, max uint64) uint64 {
	_ = vals[187]
	m0 := mems[0]
	v0 := vals[0]
	v9 := vals[9]
	v46 := vals[46]
	v48 := vals[48]
	v67 := vals[67]
	v72 := vals[72]
	v73 := vals[73]
	v94 := vals[94]
	v97 := vals[97]
	v98 := vals[98]
	v106 := vals[106]
	v109 := vals[109]
	v110 := vals[110]
	v119 := vals[119]
	v122 := vals[122]
	v123 := vals[123]
	v127 := vals[127]
	v130 := vals[130]
	v135 := vals[135]
	v140 := vals[140]
	v145 := vals[145]
	v150 := vals[150]
	v155 := vals[155]
	v159 := vals[159]
	v164 := vals[164]
	v169 := vals[169]
	v173 := vals[173]
	v178 := vals[178]
	v183 := vals[183]
	var n uint64
	for ; n < max; n++ {
		var v10 uint64
		if addr := uint64(v9); addr < uint64(len(m0)) {
			v10 = m0[addr] & 0xfffffff
		}
		v12 := v10 & 0x3
		var v14 uint64
		if v12 == 0x0 {
			v14 = 1
		}
		var v17 uint64
		if v12 == 0x1 {
			v17 = 1
		}
		var v20 uint64
		if v17 != 0 {
			v20 = 0x4
		} else {
			v20 = 0x5
		}
		var v21 uint64
		if v14 != 0 {
			v21 = 0x7
		} else {
			v21 = v20
		}
		var v30 uint64
		if addr := uint64(0x0); addr < uint64(len(m0)) {
			v30 = m0[addr] & 0x1fff
		}
		var v31 uint64
		if v30 <= v9 {
			v31 = 1
		}
		var v33 uint64
		if v31 != 0 {
			v33 = 0x9
		} else {
			v33 = 0x1
		}
		v44 := (v9 + 0x1) & 0x1fff
		v53 := (v10 >> 2)
		v55 := v53 & 0x3f
		var v57 uint64
		if v55 != 0x0 {
			v57 = 1
		}
		v58 := ^v57 & 0x1
		v61 := (v48 + 0x8) & 0xffffff
		v64 := (v48 + 0xc) & 0xffffff
		v70 := (v67 + 0x1) & 0xffffff
		v76 := (v10 >> 9)
		v78 := v76 & 0x7
		v80 := (v78 | 0x0)
		v82 := (v80 << 1) & 0xff
		v83 := (v80 + v82) & 0xff
		v84 := (0x2 + v83) & 0xff
		v86 := (v10 >> 8)
		v88 := v86 & 0x1
		var v90 uint64
		if v88 != 0 {
			v90 = 0x14
		} else {
			v90 = 0x0
		}
		v91 := (v84 + v90) & 0xff
		v92 := (v73 + v91) & 0xffffff
		v95 := (v94 + 0x1) & 0xffffff
		var v100 uint64
		if v12 == 0x2 {
			v100 = 1
		}
		v103 := (0x3 + v83) & 0xff
		v104 := (v98 + v103) & 0xffffff
		v107 := (v106 + 0x1) & 0xffffff
		v113 := (v55 | 0x0)
		v114 := (v55 >> 2)
		v115 := (v113 - v114) & 0xff
		v116 := (0xa + v115) & 0xff
		v117 := (v110 + v116) & 0xffffff
		v120 := (v119 + 0x1) & 0xffffff
		v124 := (v55 >> 1)
		v125 := (v123 + v124) & 0xffffff
		v128 := (v127 + 0x1) & 0xffffff
		v133 := (v130 + 0x1) & 0xffffff
		v138 := (v135 + 0x1) & 0xffffff
		v143 := (v140 + 0x1) & 0xffffff
		v148 := (v145 + 0x1) & 0xffffff
		v153 := (v150 + 0x1) & 0xffffff
		v157 := (v155 + 0x1) & 0xffffff
		v162 := (v159 + 0x1) & 0xffffff
		v167 := (v164 + 0x1) & 0xffffff
		v171 := (v169 + 0x1) & 0xffffff
		v176 := (v173 + 0x1) & 0xffffff
		v181 := (v178 + 0x1) & 0xffffff
		v185 := (v183 + 0x1) & 0xffffff
		var s42, s45, s66, s71, s93, s96, s105, s108, s118, s121, s126, s129, s134, s139, s144, s149, s154, s158, s163, s168, s172, s177, s182, s186, s187 uint64
		switch v0 {
		case 0x0:
			v45 := v9
			v50 := 0x0 & v14
			v51 := (0x0 | v50)
			v59 := v51 & v58
			v62 := v51 & v57
			var v65 uint64
			if v62 != 0 {
				v65 = v64
			} else {
				v65 = v48
			}
			var v66 uint64
			if v59 != 0 {
				v66 = v61
			} else {
				v66 = v65
			}
			v68 := (v62 | v59)
			var v71 uint64
			if v68 != 0 {
				v71 = v70
			} else {
				v71 = v67
			}
			v93 := v73
			v96 := v94
			v101 := 0x0 & v100
			var v105 uint64
			if v101 != 0 {
				v105 = v104
			} else {
				v105 = v98
			}
			var v108 uint64
			if v101 != 0 {
				v108 = v107
			} else {
				v108 = v106
			}
			v111 := 0x0 & v17
			var v118 uint64
			if v111 != 0 {
				v118 = v117
			} else {
				v118 = v110
			}
			var v121 uint64
			if v111 != 0 {
				v121 = v120
			} else {
				v121 = v119
			}
			v126 := v123
			v129 := v127
			v134 := v130
			v139 := v135
			v144 := v140
			v149 := v145
			v154 := v150
			v158 := v155
			v163 := v159
			v168 := v164
			v172 := v169
			v177 := v173
			v182 := v178
			v186 := v185
			s187 = 0x0
			s42 = 0x1
			s45 = v45
			s66 = v66
			s71 = v71
			s93 = v93
			s96 = v96
			s105 = v105
			s108 = v108
			s118 = v118
			s121 = v121
			s126 = v126
			s129 = v129
			s134 = v134
			s139 = v139
			s144 = v144
			s149 = v149
			s154 = v154
			s158 = v158
			s163 = v163
			s168 = v168
			s172 = v172
			s177 = v177
			s182 = v182
			s186 = v186
		case 0x1:
			v45 := v9
			v50 := 0x0 & v14
			v51 := (0x0 | v50)
			v59 := v51 & v58
			v62 := v51 & v57
			var v65 uint64
			if v62 != 0 {
				v65 = v64
			} else {
				v65 = v48
			}
			var v66 uint64
			if v59 != 0 {
				v66 = v61
			} else {
				v66 = v65
			}
			v68 := (v62 | v59)
			var v71 uint64
			if v68 != 0 {
				v71 = v70
			} else {
				v71 = v67
			}
			v93 := v73
			v96 := v94
			v101 := 0x0 & v100
			var v105 uint64
			if v101 != 0 {
				v105 = v104
			} else {
				v105 = v98
			}
			var v108 uint64
			if v101 != 0 {
				v108 = v107
			} else {
				v108 = v106
			}
			v111 := 0x0 & v17
			var v118 uint64
			if v111 != 0 {
				v118 = v117
			} else {
				v118 = v110
			}
			var v121 uint64
			if v111 != 0 {
				v121 = v120
			} else {
				v121 = v119
			}
			v126 := v125
			v129 := v128
			v134 := v130
			v139 := v135
			v144 := v140
			v149 := v145
			v154 := v150
			v158 := v155
			v163 := v159
			v168 := v164
			v172 := v169
			v177 := v173
			v182 := v181
			v186 := v183
			s187 = 0x0
			s42 = 0x2
			s45 = v45
			s66 = v66
			s71 = v71
			s93 = v93
			s96 = v96
			s105 = v105
			s108 = v108
			s118 = v118
			s121 = v121
			s126 = v126
			s129 = v129
			s134 = v134
			s139 = v139
			s144 = v144
			s149 = v149
			s154 = v154
			s158 = v158
			s163 = v163
			s168 = v168
			s172 = v172
			s177 = v177
			s182 = v182
			s186 = v186
		case 0x2:
			v45 := v9
			v50 := 0x0 & v14
			v51 := (0x0 | v50)
			v59 := v51 & v58
			v62 := v51 & v57
			var v65 uint64
			if v62 != 0 {
				v65 = v64
			} else {
				v65 = v48
			}
			var v66 uint64
			if v59 != 0 {
				v66 = v61
			} else {
				v66 = v65
			}
			v68 := (v62 | v59)
			var v71 uint64
			if v68 != 0 {
				v71 = v70
			} else {
				v71 = v67
			}
			v93 := v73
			v96 := v94
			v101 := 0x0 & v100
			var v105 uint64
			if v101 != 0 {
				v105 = v104
			} else {
				v105 = v98
			}
			var v108 uint64
			if v101 != 0 {
				v108 = v107
			} else {
				v108 = v106
			}
			v111 := 0x0 & v17
			var v118 uint64
			if v111 != 0 {
				v118 = v117
			} else {
				v118 = v110
			}
			var v121 uint64
			if v111 != 0 {
				v121 = v120
			} else {
				v121 = v119
			}
			v126 := v123
			v129 := v127
			v134 := v130
			v139 := v135
			v144 := v140
			v149 := v145
			v154 := v150
			v158 := v155
			v163 := v159
			v168 := v164
			v172 := v169
			v177 := v176
			v182 := v178
			v186 := v183
			s187 = 0x0
			s42 = 0x3
			s45 = v45
			s66 = v66
			s71 = v71
			s93 = v93
			s96 = v96
			s105 = v105
			s108 = v108
			s118 = v118
			s121 = v121
			s126 = v126
			s129 = v129
			s134 = v134
			s139 = v139
			s144 = v144
			s149 = v149
			s154 = v154
			s158 = v158
			s163 = v163
			s168 = v168
			s172 = v172
			s177 = v177
			s182 = v182
			s186 = v186
		case 0x3:
			v39 := v21
			v40 := v39
			v41 := v40
			v42 := v41
			v45 := v9
			v50 := 0x1 & v14
			v51 := (0x0 | v50)
			v59 := v51 & v58
			v62 := v51 & v57
			var v65 uint64
			if v62 != 0 {
				v65 = v64
			} else {
				v65 = v48
			}
			var v66 uint64
			if v59 != 0 {
				v66 = v61
			} else {
				v66 = v65
			}
			v68 := (v62 | v59)
			var v71 uint64
			if v68 != 0 {
				v71 = v70
			} else {
				v71 = v67
			}
			v93 := v73
			v96 := v94
			v101 := 0x1 & v100
			var v105 uint64
			if v101 != 0 {
				v105 = v104
			} else {
				v105 = v98
			}
			var v108 uint64
			if v101 != 0 {
				v108 = v107
			} else {
				v108 = v106
			}
			v111 := 0x1 & v17
			var v118 uint64
			if v111 != 0 {
				v118 = v117
			} else {
				v118 = v110
			}
			var v121 uint64
			if v111 != 0 {
				v121 = v120
			} else {
				v121 = v119
			}
			v126 := v123
			v129 := v127
			var v131 uint64
			if v42 == 0x1 {
				v131 = 1
			}
			v132 := 0x0 & v131
			var v134 uint64
			if v132 != 0 {
				v134 = v133
			} else {
				v134 = v130
			}
			var v136 uint64
			if v42 == 0x9 {
				v136 = 1
			}
			v137 := 0x0 & v136
			var v139 uint64
			if v137 != 0 {
				v139 = v138
			} else {
				v139 = v135
			}
			var v141 uint64
			if v42 == 0x8 {
				v141 = 1
			}
			v142 := 0x0 & v141
			var v144 uint64
			if v142 != 0 {
				v144 = v143
			} else {
				v144 = v140
			}
			var v146 uint64
			if v42 == 0x7 {
				v146 = 1
			}
			v147 := 0x0 & v146
			var v149 uint64
			if v147 != 0 {
				v149 = v148
			} else {
				v149 = v145
			}
			var v151 uint64
			if v42 == 0x6 {
				v151 = 1
			}
			v152 := 0x0 & v151
			var v154 uint64
			if v152 != 0 {
				v154 = v153
			} else {
				v154 = v150
			}
			v156 := 0x0 & v146
			var v158 uint64
			if v156 != 0 {
				v158 = v157
			} else {
				v158 = v155
			}
			var v160 uint64
			if v42 == 0x5 {
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
			if v42 == 0x4 {
				v165 = 1
			}
			v166 := 0x1 & v165
			var v168 uint64
			if v166 != 0 {
				v168 = v167
			} else {
				v168 = v164
			}
			v170 := 0x1 & v146
			var v172 uint64
			if v170 != 0 {
				v172 = v171
			} else {
				v172 = v169
			}
			var v174 uint64
			if v42 == 0x3 {
				v174 = 1
			}
			v175 := 0x0 & v174
			var v177 uint64
			if v175 != 0 {
				v177 = v176
			} else {
				v177 = v173
			}
			var v179 uint64
			if v42 == 0x2 {
				v179 = 1
			}
			v180 := 0x0 & v179
			var v182 uint64
			if v180 != 0 {
				v182 = v181
			} else {
				v182 = v178
			}
			v184 := 0x0 & v131
			var v186 uint64
			if v184 != 0 {
				v186 = v185
			} else {
				v186 = v183
			}
			s187 = 0x0
			s42 = v42
			s45 = v45
			s66 = v66
			s71 = v71
			s93 = v93
			s96 = v96
			s105 = v105
			s108 = v108
			s118 = v118
			s121 = v121
			s126 = v126
			s129 = v129
			s134 = v134
			s139 = v139
			s144 = v144
			s149 = v149
			s154 = v154
			s158 = v158
			s163 = v163
			s168 = v168
			s172 = v172
			s177 = v177
			s182 = v182
			s186 = v186
		case 0x4:
			v45 := v9
			v50 := 0x0 & v14
			v51 := (0x1 | v50)
			v59 := v51 & v58
			v62 := v51 & v57
			var v65 uint64
			if v62 != 0 {
				v65 = v64
			} else {
				v65 = v48
			}
			var v66 uint64
			if v59 != 0 {
				v66 = v61
			} else {
				v66 = v65
			}
			v68 := (v62 | v59)
			var v71 uint64
			if v68 != 0 {
				v71 = v70
			} else {
				v71 = v67
			}
			v93 := v73
			v96 := v94
			v101 := 0x0 & v100
			var v105 uint64
			if v101 != 0 {
				v105 = v104
			} else {
				v105 = v98
			}
			var v108 uint64
			if v101 != 0 {
				v108 = v107
			} else {
				v108 = v106
			}
			v111 := 0x0 & v17
			var v118 uint64
			if v111 != 0 {
				v118 = v117
			} else {
				v118 = v110
			}
			var v121 uint64
			if v111 != 0 {
				v121 = v120
			} else {
				v121 = v119
			}
			v126 := v123
			v129 := v127
			v134 := v130
			v139 := v135
			v144 := v140
			v149 := v145
			v154 := v150
			v158 := v157
			v163 := v159
			v168 := v164
			v172 := v169
			v177 := v173
			v182 := v178
			v186 := v183
			s187 = 0x0
			s42 = 0x7
			s45 = v45
			s66 = v66
			s71 = v71
			s93 = v93
			s96 = v96
			s105 = v105
			s108 = v108
			s118 = v118
			s121 = v121
			s126 = v126
			s129 = v129
			s134 = v134
			s139 = v139
			s144 = v144
			s149 = v149
			s154 = v154
			s158 = v158
			s163 = v163
			s168 = v168
			s172 = v172
			s177 = v177
			s182 = v182
			s186 = v186
		case 0x5:
			v45 := v9
			v50 := 0x0 & v14
			v51 := (0x0 | v50)
			v59 := v51 & v58
			v62 := v51 & v57
			var v65 uint64
			if v62 != 0 {
				v65 = v64
			} else {
				v65 = v48
			}
			var v66 uint64
			if v59 != 0 {
				v66 = v61
			} else {
				v66 = v65
			}
			v68 := (v62 | v59)
			var v71 uint64
			if v68 != 0 {
				v71 = v70
			} else {
				v71 = v67
			}
			v93 := v92
			v96 := v95
			v101 := 0x0 & v100
			var v105 uint64
			if v101 != 0 {
				v105 = v104
			} else {
				v105 = v98
			}
			var v108 uint64
			if v101 != 0 {
				v108 = v107
			} else {
				v108 = v106
			}
			v111 := 0x0 & v17
			var v118 uint64
			if v111 != 0 {
				v118 = v117
			} else {
				v118 = v110
			}
			var v121 uint64
			if v111 != 0 {
				v121 = v120
			} else {
				v121 = v119
			}
			v126 := v123
			v129 := v127
			v134 := v130
			v139 := v135
			v144 := v140
			v149 := v145
			v154 := v153
			v158 := v155
			v163 := v159
			v168 := v164
			v172 := v169
			v177 := v173
			v182 := v178
			v186 := v183
			s187 = 0x0
			s42 = 0x6
			s45 = v45
			s66 = v66
			s71 = v71
			s93 = v93
			s96 = v96
			s105 = v105
			s108 = v108
			s118 = v118
			s121 = v121
			s126 = v126
			s129 = v129
			s134 = v134
			s139 = v139
			s144 = v144
			s149 = v149
			s154 = v154
			s158 = v158
			s163 = v163
			s168 = v168
			s172 = v172
			s177 = v177
			s182 = v182
			s186 = v186
		case 0x6:
			v45 := v9
			v50 := 0x0 & v14
			v51 := (0x1 | v50)
			v59 := v51 & v58
			v62 := v51 & v57
			var v65 uint64
			if v62 != 0 {
				v65 = v64
			} else {
				v65 = v48
			}
			var v66 uint64
			if v59 != 0 {
				v66 = v61
			} else {
				v66 = v65
			}
			v68 := (v62 | v59)
			var v71 uint64
			if v68 != 0 {
				v71 = v70
			} else {
				v71 = v67
			}
			v93 := v73
			v96 := v94
			v101 := 0x0 & v100
			var v105 uint64
			if v101 != 0 {
				v105 = v104
			} else {
				v105 = v98
			}
			var v108 uint64
			if v101 != 0 {
				v108 = v107
			} else {
				v108 = v106
			}
			v111 := 0x0 & v17
			var v118 uint64
			if v111 != 0 {
				v118 = v117
			} else {
				v118 = v110
			}
			var v121 uint64
			if v111 != 0 {
				v121 = v120
			} else {
				v121 = v119
			}
			v126 := v123
			v129 := v127
			v134 := v130
			v139 := v135
			v144 := v140
			v149 := v148
			v154 := v150
			v158 := v155
			v163 := v159
			v168 := v164
			v172 := v169
			v177 := v173
			v182 := v178
			v186 := v183
			s187 = 0x0
			s42 = 0x7
			s45 = v45
			s66 = v66
			s71 = v71
			s93 = v93
			s96 = v96
			s105 = v105
			s108 = v108
			s118 = v118
			s121 = v121
			s126 = v126
			s129 = v129
			s134 = v134
			s139 = v139
			s144 = v144
			s149 = v149
			s154 = v154
			s158 = v158
			s163 = v163
			s168 = v168
			s172 = v172
			s177 = v177
			s182 = v182
			s186 = v186
		case 0x7:
			v45 := v9
			v50 := 0x0 & v14
			v51 := (0x0 | v50)
			v59 := v51 & v58
			v62 := v51 & v57
			var v65 uint64
			if v62 != 0 {
				v65 = v64
			} else {
				v65 = v48
			}
			var v66 uint64
			if v59 != 0 {
				v66 = v61
			} else {
				v66 = v65
			}
			v68 := (v62 | v59)
			var v71 uint64
			if v68 != 0 {
				v71 = v70
			} else {
				v71 = v67
			}
			v93 := v73
			v96 := v94
			v101 := 0x0 & v100
			var v105 uint64
			if v101 != 0 {
				v105 = v104
			} else {
				v105 = v98
			}
			var v108 uint64
			if v101 != 0 {
				v108 = v107
			} else {
				v108 = v106
			}
			v111 := 0x0 & v17
			var v118 uint64
			if v111 != 0 {
				v118 = v117
			} else {
				v118 = v110
			}
			var v121 uint64
			if v111 != 0 {
				v121 = v120
			} else {
				v121 = v119
			}
			v126 := v123
			v129 := v127
			v134 := v130
			v139 := v135
			v144 := v143
			v149 := v145
			v154 := v150
			v158 := v155
			v163 := v159
			v168 := v164
			v172 := v169
			v177 := v173
			v182 := v178
			v186 := v183
			s187 = 0x0
			s42 = 0x8
			s45 = v45
			s66 = v66
			s71 = v71
			s93 = v93
			s96 = v96
			s105 = v105
			s108 = v108
			s118 = v118
			s121 = v121
			s126 = v126
			s129 = v129
			s134 = v134
			s139 = v139
			s144 = v144
			s149 = v149
			s154 = v154
			s158 = v158
			s163 = v163
			s168 = v168
			s172 = v172
			s177 = v177
			s182 = v182
			s186 = v186
		case 0x8:
			v34 := v33
			v35 := v34
			v36 := v35
			v37 := v36
			v38 := v37
			v39 := v38
			v40 := v39
			v41 := v40
			v42 := v41
			v45 := v44
			v50 := 0x0 & v14
			v51 := (0x0 | v50)
			v59 := v51 & v58
			v62 := v51 & v57
			var v65 uint64
			if v62 != 0 {
				v65 = v64
			} else {
				v65 = v48
			}
			var v66 uint64
			if v59 != 0 {
				v66 = v61
			} else {
				v66 = v65
			}
			v68 := (v62 | v59)
			var v71 uint64
			if v68 != 0 {
				v71 = v70
			} else {
				v71 = v67
			}
			v93 := v73
			v96 := v94
			v101 := 0x0 & v100
			var v105 uint64
			if v101 != 0 {
				v105 = v104
			} else {
				v105 = v98
			}
			var v108 uint64
			if v101 != 0 {
				v108 = v107
			} else {
				v108 = v106
			}
			v111 := 0x0 & v17
			var v118 uint64
			if v111 != 0 {
				v118 = v117
			} else {
				v118 = v110
			}
			var v121 uint64
			if v111 != 0 {
				v121 = v120
			} else {
				v121 = v119
			}
			v126 := v123
			v129 := v127
			var v131 uint64
			if v42 == 0x1 {
				v131 = 1
			}
			v132 := 0x1 & v131
			var v134 uint64
			if v132 != 0 {
				v134 = v133
			} else {
				v134 = v130
			}
			var v136 uint64
			if v42 == 0x9 {
				v136 = 1
			}
			v137 := 0x1 & v136
			var v139 uint64
			if v137 != 0 {
				v139 = v138
			} else {
				v139 = v135
			}
			var v141 uint64
			if v42 == 0x8 {
				v141 = 1
			}
			v142 := 0x0 & v141
			var v144 uint64
			if v142 != 0 {
				v144 = v143
			} else {
				v144 = v140
			}
			var v146 uint64
			if v42 == 0x7 {
				v146 = 1
			}
			v147 := 0x0 & v146
			var v149 uint64
			if v147 != 0 {
				v149 = v148
			} else {
				v149 = v145
			}
			var v151 uint64
			if v42 == 0x6 {
				v151 = 1
			}
			v152 := 0x0 & v151
			var v154 uint64
			if v152 != 0 {
				v154 = v153
			} else {
				v154 = v150
			}
			v156 := 0x0 & v146
			var v158 uint64
			if v156 != 0 {
				v158 = v157
			} else {
				v158 = v155
			}
			var v160 uint64
			if v42 == 0x5 {
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
			if v42 == 0x4 {
				v165 = 1
			}
			v166 := 0x0 & v165
			var v168 uint64
			if v166 != 0 {
				v168 = v167
			} else {
				v168 = v164
			}
			v170 := 0x0 & v146
			var v172 uint64
			if v170 != 0 {
				v172 = v171
			} else {
				v172 = v169
			}
			var v174 uint64
			if v42 == 0x3 {
				v174 = 1
			}
			v175 := 0x0 & v174
			var v177 uint64
			if v175 != 0 {
				v177 = v176
			} else {
				v177 = v173
			}
			var v179 uint64
			if v42 == 0x2 {
				v179 = 1
			}
			v180 := 0x0 & v179
			var v182 uint64
			if v180 != 0 {
				v182 = v181
			} else {
				v182 = v178
			}
			v184 := 0x0 & v131
			var v186 uint64
			if v184 != 0 {
				v186 = v185
			} else {
				v186 = v183
			}
			s187 = 0x0
			s42 = v42
			s45 = v45
			s66 = v66
			s71 = v71
			s93 = v93
			s96 = v96
			s105 = v105
			s108 = v108
			s118 = v118
			s121 = v121
			s126 = v126
			s129 = v129
			s134 = v134
			s139 = v139
			s144 = v144
			s149 = v149
			s154 = v154
			s158 = v158
			s163 = v163
			s168 = v168
			s172 = v172
			s177 = v177
			s182 = v182
			s186 = v186
		case 0x9:
			v45 := v9
			v50 := 0x0 & v14
			v51 := (0x0 | v50)
			v59 := v51 & v58
			v62 := v51 & v57
			var v65 uint64
			if v62 != 0 {
				v65 = v64
			} else {
				v65 = v48
			}
			var v66 uint64
			if v59 != 0 {
				v66 = v61
			} else {
				v66 = v65
			}
			v68 := (v62 | v59)
			var v71 uint64
			if v68 != 0 {
				v71 = v70
			} else {
				v71 = v67
			}
			v93 := v73
			v96 := v94
			v101 := 0x0 & v100
			var v105 uint64
			if v101 != 0 {
				v105 = v104
			} else {
				v105 = v98
			}
			var v108 uint64
			if v101 != 0 {
				v108 = v107
			} else {
				v108 = v106
			}
			v111 := 0x0 & v17
			var v118 uint64
			if v111 != 0 {
				v118 = v117
			} else {
				v118 = v110
			}
			var v121 uint64
			if v111 != 0 {
				v121 = v120
			} else {
				v121 = v119
			}
			v126 := v123
			v129 := v127
			v134 := v130
			v139 := v135
			v144 := v140
			v149 := v145
			v154 := v150
			v158 := v155
			v163 := v159
			v168 := v164
			v172 := v169
			v177 := v173
			v182 := v178
			v186 := v183
			s187 = 0x1
			s42 = 0x9
			s45 = v45
			s66 = v66
			s71 = v71
			s93 = v93
			s96 = v96
			s105 = v105
			s108 = v108
			s118 = v118
			s121 = v121
			s126 = v126
			s129 = v129
			s134 = v134
			s139 = v139
			s144 = v144
			s149 = v149
			s154 = v154
			s158 = v158
			s163 = v163
			s168 = v168
			s172 = v172
			s177 = v177
			s182 = v182
			s186 = v186
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
			var v22 uint64
			if v0 == 0x4 {
				v22 = 1
			}
			var v23 uint64
			if v0 == 0x5 {
				v23 = 1
			}
			var v25 uint64
			if v0 == 0x6 {
				v25 = 1
			}
			var v26 uint64
			if v0 == 0x7 {
				v26 = 1
			}
			var v28 uint64
			if v0 == 0x8 {
				v28 = 1
			}
			var v34 uint64
			if v28 != 0 {
				v34 = v33
			} else {
				v34 = v0
			}
			var v35 uint64
			if v26 != 0 {
				v35 = 0x8
			} else {
				v35 = v34
			}
			var v36 uint64
			if v25 != 0 {
				v36 = 0x7
			} else {
				v36 = v35
			}
			var v37 uint64
			if v23 != 0 {
				v37 = 0x6
			} else {
				v37 = v36
			}
			var v38 uint64
			if v22 != 0 {
				v38 = 0x7
			} else {
				v38 = v37
			}
			var v39 uint64
			if v8 != 0 {
				v39 = v21
			} else {
				v39 = v38
			}
			var v40 uint64
			if v6 != 0 {
				v40 = 0x3
			} else {
				v40 = v39
			}
			var v41 uint64
			if v4 != 0 {
				v41 = 0x2
			} else {
				v41 = v40
			}
			var v42 uint64
			if v2 != 0 {
				v42 = 0x1
			} else {
				v42 = v41
			}
			var v45 uint64
			if v28 != 0 {
				v45 = v44
			} else {
				v45 = v9
			}
			v49 := (v22 | v25)
			v50 := v8 & v14
			v51 := (v49 | v50)
			v59 := v51 & v58
			v62 := v51 & v57
			var v65 uint64
			if v62 != 0 {
				v65 = v64
			} else {
				v65 = v48
			}
			var v66 uint64
			if v59 != 0 {
				v66 = v61
			} else {
				v66 = v65
			}
			v68 := (v62 | v59)
			var v71 uint64
			if v68 != 0 {
				v71 = v70
			} else {
				v71 = v67
			}
			var v93 uint64
			if v23 != 0 {
				v93 = v92
			} else {
				v93 = v73
			}
			var v96 uint64
			if v23 != 0 {
				v96 = v95
			} else {
				v96 = v94
			}
			v101 := v8 & v100
			var v105 uint64
			if v101 != 0 {
				v105 = v104
			} else {
				v105 = v98
			}
			var v108 uint64
			if v101 != 0 {
				v108 = v107
			} else {
				v108 = v106
			}
			v111 := v8 & v17
			var v118 uint64
			if v111 != 0 {
				v118 = v117
			} else {
				v118 = v110
			}
			var v121 uint64
			if v111 != 0 {
				v121 = v120
			} else {
				v121 = v119
			}
			var v126 uint64
			if v4 != 0 {
				v126 = v125
			} else {
				v126 = v123
			}
			var v129 uint64
			if v4 != 0 {
				v129 = v128
			} else {
				v129 = v127
			}
			var v131 uint64
			if v42 == 0x1 {
				v131 = 1
			}
			v132 := v28 & v131
			var v134 uint64
			if v132 != 0 {
				v134 = v133
			} else {
				v134 = v130
			}
			var v136 uint64
			if v42 == 0x9 {
				v136 = 1
			}
			v137 := v28 & v136
			var v139 uint64
			if v137 != 0 {
				v139 = v138
			} else {
				v139 = v135
			}
			var v141 uint64
			if v42 == 0x8 {
				v141 = 1
			}
			v142 := v26 & v141
			var v144 uint64
			if v142 != 0 {
				v144 = v143
			} else {
				v144 = v140
			}
			var v146 uint64
			if v42 == 0x7 {
				v146 = 1
			}
			v147 := v25 & v146
			var v149 uint64
			if v147 != 0 {
				v149 = v148
			} else {
				v149 = v145
			}
			var v151 uint64
			if v42 == 0x6 {
				v151 = 1
			}
			v152 := v23 & v151
			var v154 uint64
			if v152 != 0 {
				v154 = v153
			} else {
				v154 = v150
			}
			v156 := v22 & v146
			var v158 uint64
			if v156 != 0 {
				v158 = v157
			} else {
				v158 = v155
			}
			var v160 uint64
			if v42 == 0x5 {
				v160 = 1
			}
			v161 := v8 & v160
			var v163 uint64
			if v161 != 0 {
				v163 = v162
			} else {
				v163 = v159
			}
			var v165 uint64
			if v42 == 0x4 {
				v165 = 1
			}
			v166 := v8 & v165
			var v168 uint64
			if v166 != 0 {
				v168 = v167
			} else {
				v168 = v164
			}
			v170 := v8 & v146
			var v172 uint64
			if v170 != 0 {
				v172 = v171
			} else {
				v172 = v169
			}
			var v174 uint64
			if v42 == 0x3 {
				v174 = 1
			}
			v175 := v6 & v174
			var v177 uint64
			if v175 != 0 {
				v177 = v176
			} else {
				v177 = v173
			}
			var v179 uint64
			if v42 == 0x2 {
				v179 = 1
			}
			v180 := v4 & v179
			var v182 uint64
			if v180 != 0 {
				v182 = v181
			} else {
				v182 = v178
			}
			v184 := v2 & v131
			var v186 uint64
			if v184 != 0 {
				v186 = v185
			} else {
				v186 = v183
			}
			var v187 uint64
			if v0 == 0x9 {
				v187 = 1
			}
			s187 = v187
			s42 = v42
			s45 = v45
			s66 = v66
			s71 = v71
			s93 = v93
			s96 = v96
			s105 = v105
			s108 = v108
			s118 = v118
			s121 = v121
			s126 = v126
			s129 = v129
			s134 = v134
			s139 = v139
			s144 = v144
			s149 = v149
			s154 = v154
			s158 = v158
			s163 = v163
			s168 = v168
			s172 = v172
			s177 = v177
			s182 = v182
			s186 = v186
		}
		if s187 != 0 {
			break
		}
		v0 = s42
		v9 = s45
		v46 = 0x0
		v48 = s66
		v67 = s71
		v72 = 0x0
		v73 = s93
		v94 = s96
		v97 = 0x0
		v98 = s105
		v106 = s108
		v109 = 0x0
		v110 = s118
		v119 = s121
		v122 = 0x0
		v123 = s126
		v127 = s129
		v130 = s134
		v135 = s139
		v140 = s144
		v145 = s149
		v150 = s154
		v155 = s158
		v159 = s163
		v164 = s168
		v169 = s172
		v173 = s177
		v178 = s182
		v183 = s186
	}
	vals[0] = v0
	vals[9] = v9
	vals[46] = v46
	vals[48] = v48
	vals[67] = v67
	vals[72] = v72
	vals[73] = v73
	vals[94] = v94
	vals[97] = v97
	vals[98] = v98
	vals[106] = v106
	vals[109] = v109
	vals[110] = v110
	vals[119] = v119
	vals[122] = v122
	vals[123] = v123
	vals[127] = v127
	vals[130] = v130
	vals[135] = v135
	vals[140] = v140
	vals[145] = v145
	vals[150] = v150
	vals[155] = v155
	vals[159] = v159
	vals[164] = v164
	vals[169] = v169
	vals[173] = v173
	vals[178] = v178
	vals[183] = v183
	return n
}

func run_h264_slice_t42(vals []uint64, mems [][]uint64, max uint64) uint64 {
	_ = vals[133]
	m0 := mems[0]
	v0 := vals[0]
	v9 := vals[9]
	v46 := vals[46]
	v65 := vals[65]
	v86 := vals[86]
	v90 := vals[90]
	v98 := vals[98]
	v101 := vals[101]
	v110 := vals[110]
	v114 := vals[114]
	v119 := vals[119]
	v124 := vals[124]
	v129 := vals[129]
	var n uint64
	for ; n < max; n++ {
		var v10 uint64
		if addr := uint64(v9); addr < uint64(len(m0)) {
			v10 = m0[addr] & 0xfffffff
		}
		v12 := v10 & 0x3
		var v14 uint64
		if v12 == 0x0 {
			v14 = 1
		}
		var v17 uint64
		if v12 == 0x1 {
			v17 = 1
		}
		var v20 uint64
		if v17 != 0 {
			v20 = 0x4
		} else {
			v20 = 0x5
		}
		var v21 uint64
		if v14 != 0 {
			v21 = 0x7
		} else {
			v21 = v20
		}
		var v30 uint64
		if addr := uint64(0x0); addr < uint64(len(m0)) {
			v30 = m0[addr] & 0x1fff
		}
		var v31 uint64
		if v30 <= v9 {
			v31 = 1
		}
		var v33 uint64
		if v31 != 0 {
			v33 = 0x9
		} else {
			v33 = 0x1
		}
		v44 := (v9 + 0x1) & 0x1fff
		v51 := (v10 >> 2)
		v53 := v51 & 0x3f
		var v55 uint64
		if v53 != 0x0 {
			v55 = 1
		}
		v56 := ^v55 & 0x1
		v59 := (v46 + 0x8) & 0xffffff
		v62 := (v46 + 0xc) & 0xffffff
		v68 := (v10 >> 9)
		v70 := v68 & 0x7
		v72 := (v70 | 0x0)
		v74 := (v72 << 1) & 0xff
		v75 := (v72 + v74) & 0xff
		v76 := (0x2 + v75) & 0xff
		v78 := (v10 >> 8)
		v80 := v78 & 0x1
		var v82 uint64
		if v80 != 0 {
			v82 = 0x14
		} else {
			v82 = 0x0
		}
		v83 := (v76 + v82) & 0xff
		v84 := (v65 + v83) & 0xffffff
		v88 := (v86 + 0x1) & 0xffffff
		var v92 uint64
		if v12 == 0x2 {
			v92 = 1
		}
		v95 := (0x3 + v75) & 0xff
		v96 := (v90 + v95) & 0xffffff
		v99 := (v98 + 0x1) & 0xffffff
		v104 := (v53 | 0x0)
		v105 := (v53 >> 2)
		v106 := (v104 - v105) & 0xff
		v107 := (0xa + v106) & 0xff
		v108 := (v101 + v107) & 0xffffff
		v111 := (v53 >> 1)
		v112 := (v110 + v111) & 0xffffff
		v117 := (v114 + 0x1) & 0xffffff
		v122 := (v119 + 0x1) & 0xffffff
		v127 := (v124 + 0x1) & 0xffffff
		v131 := (v129 + 0x1) & 0xffffff
		var s42, s45, s64, s85, s89, s97, s100, s109, s113, s118, s123, s128, s132, s133 uint64
		switch v0 {
		case 0x0:
			v45 := v9
			v48 := 0x0 & v14
			v49 := (0x0 | v48)
			v57 := v49 & v56
			v60 := v49 & v55
			var v63 uint64
			if v60 != 0 {
				v63 = v62
			} else {
				v63 = v46
			}
			var v64 uint64
			if v57 != 0 {
				v64 = v59
			} else {
				v64 = v63
			}
			v85 := v65
			v89 := v86
			v93 := 0x0 & v92
			var v97 uint64
			if v93 != 0 {
				v97 = v96
			} else {
				v97 = v90
			}
			var v100 uint64
			if v93 != 0 {
				v100 = v99
			} else {
				v100 = v98
			}
			v102 := 0x0 & v17
			var v109 uint64
			if v102 != 0 {
				v109 = v108
			} else {
				v109 = v101
			}
			v113 := v110
			v118 := v114
			v123 := v119
			v128 := v124
			v132 := v129
			s133 = 0x0
			s42 = 0x1
			s45 = v45
			s64 = v64
			s85 = v85
			s89 = v89
			s97 = v97
			s100 = v100
			s109 = v109
			s113 = v113
			s118 = v118
			s123 = v123
			s128 = v128
			s132 = v132
		case 0x1:
			v45 := v9
			v48 := 0x0 & v14
			v49 := (0x0 | v48)
			v57 := v49 & v56
			v60 := v49 & v55
			var v63 uint64
			if v60 != 0 {
				v63 = v62
			} else {
				v63 = v46
			}
			var v64 uint64
			if v57 != 0 {
				v64 = v59
			} else {
				v64 = v63
			}
			v85 := v65
			v89 := v86
			v93 := 0x0 & v92
			var v97 uint64
			if v93 != 0 {
				v97 = v96
			} else {
				v97 = v90
			}
			var v100 uint64
			if v93 != 0 {
				v100 = v99
			} else {
				v100 = v98
			}
			v102 := 0x0 & v17
			var v109 uint64
			if v102 != 0 {
				v109 = v108
			} else {
				v109 = v101
			}
			v113 := v112
			v118 := v114
			v123 := v119
			v128 := v124
			v132 := v129
			s133 = 0x0
			s42 = 0x2
			s45 = v45
			s64 = v64
			s85 = v85
			s89 = v89
			s97 = v97
			s100 = v100
			s109 = v109
			s113 = v113
			s118 = v118
			s123 = v123
			s128 = v128
			s132 = v132
		case 0x2:
			v45 := v9
			v48 := 0x0 & v14
			v49 := (0x0 | v48)
			v57 := v49 & v56
			v60 := v49 & v55
			var v63 uint64
			if v60 != 0 {
				v63 = v62
			} else {
				v63 = v46
			}
			var v64 uint64
			if v57 != 0 {
				v64 = v59
			} else {
				v64 = v63
			}
			v85 := v65
			v89 := v86
			v93 := 0x0 & v92
			var v97 uint64
			if v93 != 0 {
				v97 = v96
			} else {
				v97 = v90
			}
			var v100 uint64
			if v93 != 0 {
				v100 = v99
			} else {
				v100 = v98
			}
			v102 := 0x0 & v17
			var v109 uint64
			if v102 != 0 {
				v109 = v108
			} else {
				v109 = v101
			}
			v113 := v110
			v118 := v114
			v123 := v119
			v128 := v124
			v132 := v129
			s133 = 0x0
			s42 = 0x3
			s45 = v45
			s64 = v64
			s85 = v85
			s89 = v89
			s97 = v97
			s100 = v100
			s109 = v109
			s113 = v113
			s118 = v118
			s123 = v123
			s128 = v128
			s132 = v132
		case 0x3:
			v39 := v21
			v40 := v39
			v41 := v40
			v42 := v41
			v45 := v9
			v48 := 0x1 & v14
			v49 := (0x0 | v48)
			v57 := v49 & v56
			v60 := v49 & v55
			var v63 uint64
			if v60 != 0 {
				v63 = v62
			} else {
				v63 = v46
			}
			var v64 uint64
			if v57 != 0 {
				v64 = v59
			} else {
				v64 = v63
			}
			v85 := v65
			v89 := v86
			v93 := 0x1 & v92
			var v97 uint64
			if v93 != 0 {
				v97 = v96
			} else {
				v97 = v90
			}
			var v100 uint64
			if v93 != 0 {
				v100 = v99
			} else {
				v100 = v98
			}
			v102 := 0x1 & v17
			var v109 uint64
			if v102 != 0 {
				v109 = v108
			} else {
				v109 = v101
			}
			v113 := v110
			var v115 uint64
			if v42 == 0x7 {
				v115 = 1
			}
			v116 := 0x0 & v115
			var v118 uint64
			if v116 != 0 {
				v118 = v117
			} else {
				v118 = v114
			}
			var v120 uint64
			if v42 == 0x6 {
				v120 = 1
			}
			v121 := 0x0 & v120
			var v123 uint64
			if v121 != 0 {
				v123 = v122
			} else {
				v123 = v119
			}
			var v125 uint64
			if v42 == 0x5 {
				v125 = 1
			}
			v126 := 0x1 & v125
			var v128 uint64
			if v126 != 0 {
				v128 = v127
			} else {
				v128 = v124
			}
			v130 := 0x1 & v115
			var v132 uint64
			if v130 != 0 {
				v132 = v131
			} else {
				v132 = v129
			}
			s133 = 0x0
			s42 = v42
			s45 = v45
			s64 = v64
			s85 = v85
			s89 = v89
			s97 = v97
			s100 = v100
			s109 = v109
			s113 = v113
			s118 = v118
			s123 = v123
			s128 = v128
			s132 = v132
		case 0x4:
			v45 := v9
			v48 := 0x0 & v14
			v49 := (0x1 | v48)
			v57 := v49 & v56
			v60 := v49 & v55
			var v63 uint64
			if v60 != 0 {
				v63 = v62
			} else {
				v63 = v46
			}
			var v64 uint64
			if v57 != 0 {
				v64 = v59
			} else {
				v64 = v63
			}
			v85 := v65
			v89 := v86
			v93 := 0x0 & v92
			var v97 uint64
			if v93 != 0 {
				v97 = v96
			} else {
				v97 = v90
			}
			var v100 uint64
			if v93 != 0 {
				v100 = v99
			} else {
				v100 = v98
			}
			v102 := 0x0 & v17
			var v109 uint64
			if v102 != 0 {
				v109 = v108
			} else {
				v109 = v101
			}
			v113 := v110
			v118 := v114
			v123 := v119
			v128 := v124
			v132 := v129
			s133 = 0x0
			s42 = 0x7
			s45 = v45
			s64 = v64
			s85 = v85
			s89 = v89
			s97 = v97
			s100 = v100
			s109 = v109
			s113 = v113
			s118 = v118
			s123 = v123
			s128 = v128
			s132 = v132
		case 0x5:
			v45 := v9
			v48 := 0x0 & v14
			v49 := (0x0 | v48)
			v57 := v49 & v56
			v60 := v49 & v55
			var v63 uint64
			if v60 != 0 {
				v63 = v62
			} else {
				v63 = v46
			}
			var v64 uint64
			if v57 != 0 {
				v64 = v59
			} else {
				v64 = v63
			}
			v85 := v84
			v89 := v88
			v93 := 0x0 & v92
			var v97 uint64
			if v93 != 0 {
				v97 = v96
			} else {
				v97 = v90
			}
			var v100 uint64
			if v93 != 0 {
				v100 = v99
			} else {
				v100 = v98
			}
			v102 := 0x0 & v17
			var v109 uint64
			if v102 != 0 {
				v109 = v108
			} else {
				v109 = v101
			}
			v113 := v110
			v118 := v114
			v123 := v122
			v128 := v124
			v132 := v129
			s133 = 0x0
			s42 = 0x6
			s45 = v45
			s64 = v64
			s85 = v85
			s89 = v89
			s97 = v97
			s100 = v100
			s109 = v109
			s113 = v113
			s118 = v118
			s123 = v123
			s128 = v128
			s132 = v132
		case 0x6:
			v45 := v9
			v48 := 0x0 & v14
			v49 := (0x1 | v48)
			v57 := v49 & v56
			v60 := v49 & v55
			var v63 uint64
			if v60 != 0 {
				v63 = v62
			} else {
				v63 = v46
			}
			var v64 uint64
			if v57 != 0 {
				v64 = v59
			} else {
				v64 = v63
			}
			v85 := v65
			v89 := v86
			v93 := 0x0 & v92
			var v97 uint64
			if v93 != 0 {
				v97 = v96
			} else {
				v97 = v90
			}
			var v100 uint64
			if v93 != 0 {
				v100 = v99
			} else {
				v100 = v98
			}
			v102 := 0x0 & v17
			var v109 uint64
			if v102 != 0 {
				v109 = v108
			} else {
				v109 = v101
			}
			v113 := v110
			v118 := v117
			v123 := v119
			v128 := v124
			v132 := v129
			s133 = 0x0
			s42 = 0x7
			s45 = v45
			s64 = v64
			s85 = v85
			s89 = v89
			s97 = v97
			s100 = v100
			s109 = v109
			s113 = v113
			s118 = v118
			s123 = v123
			s128 = v128
			s132 = v132
		case 0x7:
			v45 := v9
			v48 := 0x0 & v14
			v49 := (0x0 | v48)
			v57 := v49 & v56
			v60 := v49 & v55
			var v63 uint64
			if v60 != 0 {
				v63 = v62
			} else {
				v63 = v46
			}
			var v64 uint64
			if v57 != 0 {
				v64 = v59
			} else {
				v64 = v63
			}
			v85 := v65
			v89 := v86
			v93 := 0x0 & v92
			var v97 uint64
			if v93 != 0 {
				v97 = v96
			} else {
				v97 = v90
			}
			var v100 uint64
			if v93 != 0 {
				v100 = v99
			} else {
				v100 = v98
			}
			v102 := 0x0 & v17
			var v109 uint64
			if v102 != 0 {
				v109 = v108
			} else {
				v109 = v101
			}
			v113 := v110
			v118 := v114
			v123 := v119
			v128 := v124
			v132 := v129
			s133 = 0x0
			s42 = 0x8
			s45 = v45
			s64 = v64
			s85 = v85
			s89 = v89
			s97 = v97
			s100 = v100
			s109 = v109
			s113 = v113
			s118 = v118
			s123 = v123
			s128 = v128
			s132 = v132
		case 0x8:
			v34 := v33
			v35 := v34
			v36 := v35
			v37 := v36
			v38 := v37
			v39 := v38
			v40 := v39
			v41 := v40
			v42 := v41
			v45 := v44
			v48 := 0x0 & v14
			v49 := (0x0 | v48)
			v57 := v49 & v56
			v60 := v49 & v55
			var v63 uint64
			if v60 != 0 {
				v63 = v62
			} else {
				v63 = v46
			}
			var v64 uint64
			if v57 != 0 {
				v64 = v59
			} else {
				v64 = v63
			}
			v85 := v65
			v89 := v86
			v93 := 0x0 & v92
			var v97 uint64
			if v93 != 0 {
				v97 = v96
			} else {
				v97 = v90
			}
			var v100 uint64
			if v93 != 0 {
				v100 = v99
			} else {
				v100 = v98
			}
			v102 := 0x0 & v17
			var v109 uint64
			if v102 != 0 {
				v109 = v108
			} else {
				v109 = v101
			}
			v113 := v110
			var v115 uint64
			if v42 == 0x7 {
				v115 = 1
			}
			v116 := 0x0 & v115
			var v118 uint64
			if v116 != 0 {
				v118 = v117
			} else {
				v118 = v114
			}
			var v120 uint64
			if v42 == 0x6 {
				v120 = 1
			}
			v121 := 0x0 & v120
			var v123 uint64
			if v121 != 0 {
				v123 = v122
			} else {
				v123 = v119
			}
			var v125 uint64
			if v42 == 0x5 {
				v125 = 1
			}
			v126 := 0x0 & v125
			var v128 uint64
			if v126 != 0 {
				v128 = v127
			} else {
				v128 = v124
			}
			v130 := 0x0 & v115
			var v132 uint64
			if v130 != 0 {
				v132 = v131
			} else {
				v132 = v129
			}
			s133 = 0x0
			s42 = v42
			s45 = v45
			s64 = v64
			s85 = v85
			s89 = v89
			s97 = v97
			s100 = v100
			s109 = v109
			s113 = v113
			s118 = v118
			s123 = v123
			s128 = v128
			s132 = v132
		case 0x9:
			v45 := v9
			v48 := 0x0 & v14
			v49 := (0x0 | v48)
			v57 := v49 & v56
			v60 := v49 & v55
			var v63 uint64
			if v60 != 0 {
				v63 = v62
			} else {
				v63 = v46
			}
			var v64 uint64
			if v57 != 0 {
				v64 = v59
			} else {
				v64 = v63
			}
			v85 := v65
			v89 := v86
			v93 := 0x0 & v92
			var v97 uint64
			if v93 != 0 {
				v97 = v96
			} else {
				v97 = v90
			}
			var v100 uint64
			if v93 != 0 {
				v100 = v99
			} else {
				v100 = v98
			}
			v102 := 0x0 & v17
			var v109 uint64
			if v102 != 0 {
				v109 = v108
			} else {
				v109 = v101
			}
			v113 := v110
			v118 := v114
			v123 := v119
			v128 := v124
			v132 := v129
			s133 = 0x1
			s42 = 0x9
			s45 = v45
			s64 = v64
			s85 = v85
			s89 = v89
			s97 = v97
			s100 = v100
			s109 = v109
			s113 = v113
			s118 = v118
			s123 = v123
			s128 = v128
			s132 = v132
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
			var v22 uint64
			if v0 == 0x4 {
				v22 = 1
			}
			var v23 uint64
			if v0 == 0x5 {
				v23 = 1
			}
			var v25 uint64
			if v0 == 0x6 {
				v25 = 1
			}
			var v26 uint64
			if v0 == 0x7 {
				v26 = 1
			}
			var v28 uint64
			if v0 == 0x8 {
				v28 = 1
			}
			var v34 uint64
			if v28 != 0 {
				v34 = v33
			} else {
				v34 = v0
			}
			var v35 uint64
			if v26 != 0 {
				v35 = 0x8
			} else {
				v35 = v34
			}
			var v36 uint64
			if v25 != 0 {
				v36 = 0x7
			} else {
				v36 = v35
			}
			var v37 uint64
			if v23 != 0 {
				v37 = 0x6
			} else {
				v37 = v36
			}
			var v38 uint64
			if v22 != 0 {
				v38 = 0x7
			} else {
				v38 = v37
			}
			var v39 uint64
			if v8 != 0 {
				v39 = v21
			} else {
				v39 = v38
			}
			var v40 uint64
			if v6 != 0 {
				v40 = 0x3
			} else {
				v40 = v39
			}
			var v41 uint64
			if v4 != 0 {
				v41 = 0x2
			} else {
				v41 = v40
			}
			var v42 uint64
			if v2 != 0 {
				v42 = 0x1
			} else {
				v42 = v41
			}
			var v45 uint64
			if v28 != 0 {
				v45 = v44
			} else {
				v45 = v9
			}
			v47 := (v22 | v25)
			v48 := v8 & v14
			v49 := (v47 | v48)
			v57 := v49 & v56
			v60 := v49 & v55
			var v63 uint64
			if v60 != 0 {
				v63 = v62
			} else {
				v63 = v46
			}
			var v64 uint64
			if v57 != 0 {
				v64 = v59
			} else {
				v64 = v63
			}
			var v85 uint64
			if v23 != 0 {
				v85 = v84
			} else {
				v85 = v65
			}
			var v89 uint64
			if v23 != 0 {
				v89 = v88
			} else {
				v89 = v86
			}
			v93 := v8 & v92
			var v97 uint64
			if v93 != 0 {
				v97 = v96
			} else {
				v97 = v90
			}
			var v100 uint64
			if v93 != 0 {
				v100 = v99
			} else {
				v100 = v98
			}
			v102 := v8 & v17
			var v109 uint64
			if v102 != 0 {
				v109 = v108
			} else {
				v109 = v101
			}
			var v113 uint64
			if v4 != 0 {
				v113 = v112
			} else {
				v113 = v110
			}
			var v115 uint64
			if v42 == 0x7 {
				v115 = 1
			}
			v116 := v25 & v115
			var v118 uint64
			if v116 != 0 {
				v118 = v117
			} else {
				v118 = v114
			}
			var v120 uint64
			if v42 == 0x6 {
				v120 = 1
			}
			v121 := v23 & v120
			var v123 uint64
			if v121 != 0 {
				v123 = v122
			} else {
				v123 = v119
			}
			var v125 uint64
			if v42 == 0x5 {
				v125 = 1
			}
			v126 := v8 & v125
			var v128 uint64
			if v126 != 0 {
				v128 = v127
			} else {
				v128 = v124
			}
			v130 := v8 & v115
			var v132 uint64
			if v130 != 0 {
				v132 = v131
			} else {
				v132 = v129
			}
			var v133 uint64
			if v0 == 0x9 {
				v133 = 1
			}
			s133 = v133
			s42 = v42
			s45 = v45
			s64 = v64
			s85 = v85
			s89 = v89
			s97 = v97
			s100 = v100
			s109 = v109
			s113 = v113
			s118 = v118
			s123 = v123
			s128 = v128
			s132 = v132
		}
		if s133 != 0 {
			break
		}
		v0 = s42
		v9 = s45
		v46 = s64
		v65 = s85
		v86 = s89
		v90 = s97
		v98 = s100
		v101 = s109
		v110 = s113
		v114 = s118
		v119 = s123
		v124 = s128
		v129 = s132
	}
	vals[0] = v0
	vals[9] = v9
	vals[46] = v46
	vals[65] = v65
	vals[86] = v86
	vals[90] = v90
	vals[98] = v98
	vals[101] = v101
	vals[110] = v110
	vals[114] = v114
	vals[119] = v119
	vals[124] = v124
	vals[129] = v129
	return n
}

func init() {
	rtl.RegisterNative("1fe7b9d3f48f87ed9935d7678d2c5b6483b6594dce85c51f5537715d3a6b1279", "h264", run_h264)
	rtl.RegisterNative("55928936a53a3cb3e32008a681cd2c7b45f8b7221a08203b5572043c8ca1d4a6", "h264_ins", run_h264_ins)
	rtl.RegisterNative("f7f54ff253b38df4d70e2d4d14ed59c15dcb8e8b8bdf6669f3a0df9dfc85aaf4", "h264_pruned", run_h264_pruned)
	rtl.RegisterNative("de1f57a45a5b837b82f8044f7aa92308eeca8e3eea0e26049663e3ee74f91784", "h264_slice_all", run_h264_slice_all)
	rtl.RegisterNative("f1ebf5ed02d2f1d80b1271c8223e6cd1639a32323534d6159422e1fc41971f28", "h264_slice_t42", run_h264_slice_t42)
}
