// Code generated by rtlgen. DO NOT EDIT.
//
// Regenerate with: go generate ./internal/rtl/native

package native

import "repro/internal/rtl"

func run_aes(vals []uint64, mems [][]uint64, max uint64) uint64 {
	_ = vals[472]
	m0 := mems[0]
	m1 := mems[1]
	m2 := mems[2]
	m3 := mems[3]
	m4 := mems[4]
	v2 := vals[2]
	v6 := vals[6]
	v21 := vals[21]
	v32 := vals[32]
	v86 := vals[86]
	v98 := vals[98]
	v120 := vals[120]
	v132 := vals[132]
	v133 := vals[133]
	v134 := vals[134]
	v135 := vals[135]
	var n uint64
	for ; n < max; n++ {
		var v1 uint64
		if addr := uint64(0x0); addr < uint64(len(m0)) {
			v1 = m0[addr] & 0xffff
		}
		var v7 uint64
		if v6 != 0x0 {
			v7 = 1
		}
		v9 := (v6 - 0x1) & 0x7
		var v10 uint64
		if v7 != 0 {
			v10 = v9
		} else {
			v10 = v6
		}
		v13 := (0x3 - v6) & 0x3f
		v15 := (v13 + 0x1) & 0x3f
		var v16 uint64
		if addr := uint64(v15); addr < uint64(len(m0)) {
			v16 = m0[addr] & 0xffffffff
		}
		var v18 uint64
		if v6 == 0x0 {
			v18 = 1
		}
		var v23 uint64
		if v21 != 0x0 {
			v23 = 1
		}
		v24 := (v21 - 0x1) & 0x3f
		var v25 uint64
		if v23 != 0 {
			v25 = v24
		} else {
			v25 = v21
		}
		v28 := (0x2b - v21) & 0x3f
		v30 := (v28 - 0x4) & 0x3f
		var v31 uint64
		if addr := uint64(v30); addr < uint64(len(m2)) {
			v31 = m2[addr] & 0xffffffff
		}
		v34 := (v32 << 8) & 0xffffffff
		v36 := (v32 >> 24)
		v37 := (v34 | v36)
		v38 := (v37 >> 24)
		v40 := v38 & 0xff
		var v41 uint64
		if addr := uint64(v40); addr < uint64(len(m3)) {
			v41 = m3[addr] & 0xff
		}
		v43 := (v41 | 0x0)
		v44 := (v43 << 24) & 0xffffffff
		v46 := (v37 >> 16)
		v47 := v46 & 0xff
		var v48 uint64
		if addr := uint64(v47); addr < uint64(len(m3)) {
			v48 = m3[addr] & 0xff
		}
		v49 := (v48 | 0x0)
		v50 := (v49 << 16) & 0xffffffff
		v51 := (v44 | v50)
		v52 := (v37 >> 8)
		v53 := v52 & 0xff
		var v54 uint64
		if addr := uint64(v53); addr < uint64(len(m3)) {
			v54 = m3[addr] & 0xff
		}
		v55 := (v54 | 0x0)
		v56 := (v55 << 8) & 0xffffffff
		v57 := (v51 | v56)
		v58 := v37 & 0xff
		var v59 uint64
		if addr := uint64(v58); addr < uint64(len(m3)) {
			v59 = m3[addr] & 0xff
		}
		v60 := (v59 | 0x0)
		v62 := (v60 << 0) & 0xffffffff
		v63 := (v57 | v62)
		v65 := (v28 >> 2)
		v66 := (v65 - 0x1) & 0x3f
		v68 := v66 & 0xf
		var v69 uint64
		if addr := uint64(v68); addr < uint64(len(m4)) {
			v69 = m4[addr] & 0xffffffff
		}
		v70 := v28 & 0x3
		var v72 uint64
		if v70 == 0x0 {
			v72 = 1
		}
		v73 := (v63 ^ v69)
		var v74 uint64
		if v72 != 0 {
			v74 = v73
		} else {
			v74 = v32
		}
		v75 := (v31 ^ v74)
		var v76 uint64
		if v13 == 0x3 {
			v76 = 1
		}
		v87 := (v1 - 0x1) & 0xffff
		v88 := (v87 - v86) & 0xffff
		var v90 uint64
		if v86 != 0x0 {
			v90 = 1
		}
		var v91 uint64
		if v21 == 0x0 {
			v91 = 1
		}
		var v100 uint64
		if v98 != 0x0 {
			v100 = 1
		}
		v102 := (v98 - 0x1) & 0x1f
		var v103 uint64
		if v100 != 0 {
			v103 = v102
		} else {
			v103 = v98
		}
		v105 := (0x17 - v98) & 0x1f
		v106 := (v88 << 2) & 0xffff
		v107 := (v105 | 0x0)
		v108 := (v106 + v107) & 0xffff
		v110 := (v108 + 0x5) & 0xffff
		v112 := v110 & 0x3ff
		var v113 uint64
		if addr := uint64(v112); addr < uint64(len(m0)) {
			v113 = m0[addr] & 0xffffffff
		}
		var v114 uint64
		if addr := uint64(v105); addr < uint64(len(m2)) {
			v114 = m2[addr] & 0xffffffff
		}
		v115 := (v113 ^ v114)
		var v117 uint64
		if v98 == 0x0 {
			v117 = 1
		}
		var v122 uint64
		if v120 != 0x0 {
			v122 = 1
		}
		v124 := (v120 - 0x1) & 0xf
		var v125 uint64
		if v122 != 0 {
			v125 = v124
		} else {
			v125 = v120
		}
		v128 := (v120 | 0x0)
		v129 := (v128 << 2) & 0x3f
		v130 := (0x28 - v129) & 0x3f
		var v131 uint64
		if v120 == 0x0 {
			v131 = 1
		}
		v136 := (v132 >> 24)
		v137 := v136 & 0xff
		var v138 uint64
		if addr := uint64(v137); addr < uint64(len(m3)) {
			v138 = m3[addr] & 0xff
		}
		v139 := (v132 >> 16)
		v140 := v139 & 0xff
		var v141 uint64
		if addr := uint64(v140); addr < uint64(len(m3)) {
			v141 = m3[addr] & 0xff
		}
		v142 := (v132 >> 8)
		v143 := v142 & 0xff
		var v144 uint64
		if addr := uint64(v143); addr < uint64(len(m3)) {
			v144 = m3[addr] & 0xff
		}
		v145 := v132 & 0xff
		var v146 uint64
		if addr := uint64(v145); addr < uint64(len(m3)) {
			v146 = m3[addr] & 0xff
		}
		v147 := (v133 >> 24)
		v148 := v147 & 0xff
		var v149 uint64
		if addr := uint64(v148); addr < uint64(len(m3)) {
			v149 = m3[addr] & 0xff
		}
		v150 := (v133 >> 16)
		v151 := v150 & 0xff
		var v152 uint64
		if addr := uint64(v151); addr < uint64(len(m3)) {
			v152 = m3[addr] & 0xff
		}
		v153 := (v133 >> 8)
		v154 := v153 & 0xff
		var v155 uint64
		if addr := uint64(v154); addr < uint64(len(m3)) {
			v155 = m3[addr] & 0xff
		}
		v156 := v133 & 0xff
		var v157 uint64
		if addr := uint64(v156); addr < uint64(len(m3)) {
			v157 = m3[addr] & 0xff
		}
		v158 := (v134 >> 24)
		v159 := v158 & 0xff
		var v160 uint64
		if addr := uint64(v159); addr < uint64(len(m3)) {
			v160 = m3[addr] & 0xff
		}
		v161 := (v134 >> 16)
		v162 := v161 & 0xff
		var v163 uint64
		if addr := uint64(v162); addr < uint64(len(m3)) {
			v163 = m3[addr] & 0xff
		}
		v164 := (v134 >> 8)
		v165 := v164 & 0xff
		var v166 uint64
		if addr := uint64(v165); addr < uint64(len(m3)) {
			v166 = m3[addr] & 0xff
		}
		v167 := v134 & 0xff
		var v168 uint64
		if addr := uint64(v167); addr < uint64(len(m3)) {
			v168 = m3[addr] & 0xff
		}
		v169 := (v135 >> 24)
		v170 := v169 & 0xff
		var v171 uint64
		if addr := uint64(v170); addr < uint64(len(m3)) {
			v171 = m3[addr] & 0xff
		}
		v172 := (v135 >> 16)
		v173 := v172 & 0xff
		var v174 uint64
		if addr := uint64(v173); addr < uint64(len(m3)) {
			v174 = m3[addr] & 0xff
		}
		v175 := (v135 >> 8)
		v176 := v175 & 0xff
		var v177 uint64
		if addr := uint64(v176); addr < uint64(len(m3)) {
			v177 = m3[addr] & 0xff
		}
		v178 := v135 & 0xff
		var v179 uint64
		if addr := uint64(v178); addr < uint64(len(m3)) {
			v179 = m3[addr] & 0xff
		}
		v181 := (v138 >> 7)
		v183 := v181 & 0x1
		v185 := (v138 << 1) & 0xff
		var v188 uint64
		if v183 != 0 {
			v188 = 0x1b
		} else {
			v188 = 0x0
		}
		v189 := (v185 ^ v188)
		v190 := (v152 >> 7)
		v191 := v190 & 0x1
		v192 := (v152 << 1) & 0xff
		var v193 uint64
		if v191 != 0 {
			v193 = 0x1b
		} else {
			v193 = 0x0
		}
		v194 := (v192 ^ v193)
		v195 := (v194 ^ v152)
		v196 := (v189 ^ v195)
		v197 := (v196 ^ v166)
		v198 := (v197 ^ v179)
		v199 := (v138 ^ v194)
		v200 := (v166 >> 7)
		v201 := v200 & 0x1
		v202 := (v166 << 1) & 0xff
		var v203 uint64
		if v201 != 0 {
			v203 = 0x1b
		} else {
			v203 = 0x0
		}
		v204 := (v202 ^ v203)
		v205 := (v204 ^ v166)
		v206 := (v199 ^ v205)
		v207 := (v206 ^ v179)
		v208 := (v138 ^ v152)
		v209 := (v208 ^ v204)
		v210 := (v179 >> 7)
		v211 := v210 & 0x1
		v212 := (v179 << 1) & 0xff
		var v213 uint64
		if v211 != 0 {
			v213 = 0x1b
		} else {
			v213 = 0x0
		}
		v214 := (v212 ^ v213)
		v215 := (v214 ^ v179)
		v216 := (v209 ^ v215)
		v217 := (v189 ^ v138)
		v218 := (v217 ^ v152)
		v219 := (v218 ^ v166)
		v220 := (v219 ^ v214)
		v221 := (v198 | 0x0)
		v222 := (v221 << 24) & 0xffffffff
		v223 := (v207 | 0x0)
		v224 := (v223 << 16) & 0xffffffff
		v225 := (v222 | v224)
		v226 := (v216 | 0x0)
		v227 := (v226 << 8) & 0xffffffff
		v228 := (v225 | v227)
		v229 := (v220 | 0x0)
		v230 := (v228 | v229)
		v231 := (v138 | 0x0)
		v232 := (v231 << 24) & 0xffffffff
		v233 := (v152 | 0x0)
		v234 := (v233 << 16) & 0xffffffff
		v235 := (v232 | v234)
		v236 := (v166 | 0x0)
		v237 := (v236 << 8) & 0xffffffff
		v238 := (v235 | v237)
		v239 := (v179 | 0x0)
		v240 := (v238 | v239)
		var v241 uint64
		if v131 != 0 {
			v241 = v240
		} else {
			v241 = v230
		}
		v242 := (v130 + 0x0) & 0x3f
		var v243 uint64
		if addr := uint64(v242); addr < uint64(len(m2)) {
			v243 = m2[addr] & 0xffffffff
		}
		v244 := (v241 ^ v243)
		var v245 uint64
		if v105 == 0x0 {
			v245 = 1
		}
		v251 := (v106 + 0x0) & 0xffff
		v252 := v251 & 0x3ff
		v253 := (v149 >> 7)
		v254 := v253 & 0x1
		v255 := (v149 << 1) & 0xff
		var v256 uint64
		if v254 != 0 {
			v256 = 0x1b
		} else {
			v256 = 0x0
		}
		v257 := (v255 ^ v256)
		v258 := (v163 >> 7)
		v259 := v258 & 0x1
		v260 := (v163 << 1) & 0xff
		var v261 uint64
		if v259 != 0 {
			v261 = 0x1b
		} else {
			v261 = 0x0
		}
		v262 := (v260 ^ v261)
		v263 := (v262 ^ v163)
		v264 := (v257 ^ v263)
		v265 := (v264 ^ v177)
		v266 := (v265 ^ v146)
		v267 := (v149 ^ v262)
		v268 := (v177 >> 7)
		v269 := v268 & 0x1
		v270 := (v177 << 1) & 0xff
		var v271 uint64
		if v269 != 0 {
			v271 = 0x1b
		} else {
			v271 = 0x0
		}
		v272 := (v270 ^ v271)
		v273 := (v272 ^ v177)
		v274 := (v267 ^ v273)
		v275 := (v274 ^ v146)
		v276 := (v149 ^ v163)
		v277 := (v276 ^ v272)
		v278 := (v146 >> 7)
		v279 := v278 & 0x1
		v280 := (v146 << 1) & 0xff
		var v281 uint64
		if v279 != 0 {
			v281 = 0x1b
		} else {
			v281 = 0x0
		}
		v282 := (v280 ^ v281)
		v283 := (v282 ^ v146)
		v284 := (v277 ^ v283)
		v285 := (v257 ^ v149)
		v286 := (v285 ^ v163)
		v287 := (v286 ^ v177)
		v288 := (v287 ^ v282)
		v289 := (v266 | 0x0)
		v290 := (v289 << 24) & 0xffffffff
		v291 := (v275 | 0x0)
		v292 := (v291 << 16) & 0xffffffff
		v293 := (v290 | v292)
		v294 := (v284 | 0x0)
		v295 := (v294 << 8) & 0xffffffff
		v296 := (v293 | v295)
		v297 := (v288 | 0x0)
		v298 := (v296 | v297)
		v299 := (v149 | 0x0)
		v300 := (v299 << 24) & 0xffffffff
		v301 := (v163 | 0x0)
		v302 := (v301 << 16) & 0xffffffff
		v303 := (v300 | v302)
		v304 := (v177 | 0x0)
		v305 := (v304 << 8) & 0xffffffff
		v306 := (v303 | v305)
		v307 := (v146 | 0x0)
		v308 := (v306 | v307)
		var v309 uint64
		if v131 != 0 {
			v309 = v308
		} else {
			v309 = v298
		}
		v310 := (v130 + 0x1) & 0x3f
		var v311 uint64
		if addr := uint64(v310); addr < uint64(len(m2)) {
			v311 = m2[addr] & 0xffffffff
		}
		v312 := (v309 ^ v311)
		var v313 uint64
		if v105 == 0x1 {
			v313 = 1
		}
		v317 := (v106 + 0x1) & 0xffff
		v318 := v317 & 0x3ff
		v319 := (v160 >> 7)
		v320 := v319 & 0x1
		v321 := (v160 << 1) & 0xff
		var v322 uint64
		if v320 != 0 {
			v322 = 0x1b
		} else {
			v322 = 0x0
		}
		v323 := (v321 ^ v322)
		v324 := (v174 >> 7)
		v325 := v324 & 0x1
		v326 := (v174 << 1) & 0xff
		var v327 uint64
		if v325 != 0 {
			v327 = 0x1b
		} else {
			v327 = 0x0
		}
		v328 := (v326 ^ v327)
		v329 := (v328 ^ v174)
		v330 := (v323 ^ v329)
		v331 := (v330 ^ v144)
		v332 := (v331 ^ v157)
		v333 := (v160 ^ v328)
		v334 := (v144 >> 7)
		v335 := v334 & 0x1
		v336 := (v144 << 1) & 0xff
		var v337 uint64
		if v335 != 0 {
			v337 = 0x1b
		} else {
			v337 = 0x0
		}
		v338 := (v336 ^ v337)
		v339 := (v338 ^ v144)
		v340 := (v333 ^ v339)
		v341 := (v340 ^ v157)
		v342 := (v160 ^ v174)
		v343 := (v342 ^ v338)
		v344 := (v157 >> 7)
		v345 := v344 & 0x1
		v346 := (v157 << 1) & 0xff
		var v347 uint64
		if v345 != 0 {
			v347 = 0x1b
		} else {
			v347 = 0x0
		}
		v348 := (v346 ^ v347)
		v349 := (v348 ^ v157)
		v350 := (v343 ^ v349)
		v351 := (v323 ^ v160)
		v352 := (v351 ^ v174)
		v353 := (v352 ^ v144)
		v354 := (v353 ^ v348)
		v355 := (v332 | 0x0)
		v356 := (v355 << 24) & 0xffffffff
		v357 := (v341 | 0x0)
		v358 := (v357 << 16) & 0xffffffff
		v359 := (v356 | v358)
		v360 := (v350 | 0x0)
		v361 := (v360 << 8) & 0xffffffff
		v362 := (v359 | v361)
		v363 := (v354 | 0x0)
		v364 := (v362 | v363)
		v365 := (v160 | 0x0)
		v366 := (v365 << 24) & 0xffffffff
		v367 := (v174 | 0x0)
		v368 := (v367 << 16) & 0xffffffff
		v369 := (v366 | v368)
		v370 := (v144 | 0x0)
		v371 := (v370 << 8) & 0xffffffff
		v372 := (v369 | v371)
		v373 := (v157 | 0x0)
		v374 := (v372 | v373)
		var v375 uint64
		if v131 != 0 {
			v375 = v374
		} else {
			v375 = v364
		}
		v377 := (v130 + 0x2) & 0x3f
		var v378 uint64
		if addr := uint64(v377); addr < uint64(len(m2)) {
			v378 = m2[addr] & 0xffffffff
		}
		v379 := (v375 ^ v378)
		var v381 uint64
		if v105 == 0x2 {
			v381 = 1
		}
		v386 := (v106 + 0x2) & 0xffff
		v387 := v386 & 0x3ff
		v388 := (v171 >> 7)
		v389 := v388 & 0x1
		v390 := (v171 << 1) & 0xff
		var v391 uint64
		if v389 != 0 {
			v391 = 0x1b
		} else {
			v391 = 0x0
		}
		v392 := (v390 ^ v391)
		v393 := (v141 >> 7)
		v394 := v393 & 0x1
		v395 := (v141 << 1) & 0xff
		var v396 uint64
		if v394 != 0 {
			v396 = 0x1b
		} else {
			v396 = 0x0
		}
		v397 := (v395 ^ v396)
		v398 := (v397 ^ v141)
		v399 := (v392 ^ v398)
		v400 := (v399 ^ v155)
		v401 := (v400 ^ v168)
		v402 := (v171 ^ v397)
		v403 := (v155 >> 7)
		v404 := v403 & 0x1
		v405 := (v155 << 1) & 0xff
		var v406 uint64
		if v404 != 0 {
			v406 = 0x1b
		} else {
			v406 = 0x0
		}
		v407 := (v405 ^ v406)
		v408 := (v407 ^ v155)
		v409 := (v402 ^ v408)
		v410 := (v409 ^ v168)
		v411 := (v171 ^ v141)
		v412 := (v411 ^ v407)
		v413 := (v168 >> 7)
		v414 := v413 & 0x1
		v415 := (v168 << 1) & 0xff
		var v416 uint64
		if v414 != 0 {
			v416 = 0x1b
		} else {
			v416 = 0x0
		}
		v417 := (v415 ^ v416)
		v418 := (v417 ^ v168)
		v419 := (v412 ^ v418)
		v420 := (v392 ^ v171)
		v421 := (v420 ^ v141)
		v422 := (v421 ^ v155)
		v423 := (v422 ^ v417)
		v424 := (v401 | 0x0)
		v425 := (v424 << 24) & 0xffffffff
		v426 := (v410 | 0x0)
		v427 := (v426 << 16) & 0xffffffff
		v428 := (v425 | v427)
		v429 := (v419 | 0x0)
		v430 := (v429 << 8) & 0xffffffff
		v431 := (v428 | v430)
		v432 := (v423 | 0x0)
		v433 := (v431 | v432)
		v434 := (v171 | 0x0)
		v435 := (v434 << 24) & 0xffffffff
		v436 := (v141 | 0x0)
		v437 := (v436 << 16) & 0xffffffff
		v438 := (v435 | v437)
		v439 := (v155 | 0x0)
		v440 := (v439 << 8) & 0xffffffff
		v441 := (v438 | v440)
		v442 := (v168 | 0x0)
		v443 := (v441 | v442)
		var v444 uint64
		if v131 != 0 {
			v444 = v443
		} else {
			v444 = v433
		}
		v445 := (v130 + 0x3) & 0x3f
		var v446 uint64
		if addr := uint64(v445); addr < uint64(len(m2)) {
			v446 = m2[addr] & 0xffffffff
		}
		v447 := (v444 ^ v446)
		var v449 uint64
		if v105 == 0x3 {
			v449 = 1
		}
		v454 := (v106 + 0x3) & 0xffff
		v455 := v454 & 0x3ff
		v456 := (v86 - 0x1) & 0xffff
		var v459 uint64
		if v86 == 0x0 {
			v459 = 1
		}
		var v461 uint64
		if v459 != 0 {
			v461 = 0x6
		} else {
			v461 = 0x3
		}
		var s11, s26, s81, s82, s83, s84, s94, s104, s126, s250, s316, s384, s452, s458, s471, s472 uint64
		switch v2 {
		case 0x0:
			v19 := 0x0 & v18
			var v26 uint64
			if v19 != 0 {
				v26 = 0x27
			} else {
				v26 = v25
			}
			v77 := 0x0 & v76
			v80 := v32
			var v81 uint64
			if v77 != 0 {
				v81 = v16
			} else {
				v81 = v80
			}
			v92 := 0x0 & v91
			v95 := 0x0 & v90
			v96 := (v92 | v95)
			var v104 uint64
			if v96 != 0 {
				v104 = 0x17
			} else {
				v104 = v103
			}
			v118 := 0x0 & v117
			var v126 uint64
			if v118 != 0 {
				v126 = 0x9
			} else {
				v126 = v125
			}
			v246 := 0x0 & v245
			v249 := v132
			var v250 uint64
			if v246 != 0 {
				v250 = v115
			} else {
				v250 = v249
			}
			v314 := 0x0 & v313
			v315 := v133
			var v316 uint64
			if v314 != 0 {
				v316 = v115
			} else {
				v316 = v315
			}
			v382 := 0x0 & v381
			v383 := v134
			var v384 uint64
			if v382 != 0 {
				v384 = v115
			} else {
				v384 = v383
			}
			v450 := 0x0 & v449
			v451 := v135
			var v452 uint64
			if v450 != 0 {
				v452 = v115
			} else {
				v452 = v451
			}
			v458 := v87
			s472 = 0x0
			s471 = 0x1
			s11 = 0x3
			s26 = v26
			s81 = v81
			s458 = v458
			s104 = v104
			s126 = v126
			s250 = v250
			s316 = v316
			s384 = v384
			s452 = v452
			s84 = 0x0
			s94 = 0x0
		case 0x1:
			v11 := v10
			v19 := 0x1 & v18
			var v26 uint64
			if v19 != 0 {
				v26 = 0x27
			} else {
				v26 = v25
			}
			v77 := 0x1 & v76
			v80 := v32
			var v81 uint64
			if v77 != 0 {
				v81 = v16
			} else {
				v81 = v80
			}
			v82 := v13
			v83 := v16
			v92 := 0x0 & v91
			v95 := 0x0 & v90
			v96 := (v92 | v95)
			var v104 uint64
			if v96 != 0 {
				v104 = 0x17
			} else {
				v104 = v103
			}
			v118 := 0x0 & v117
			var v126 uint64
			if v118 != 0 {
				v126 = 0x9
			} else {
				v126 = v125
			}
			v246 := 0x0 & v245
			v249 := v132
			var v250 uint64
			if v246 != 0 {
				v250 = v115
			} else {
				v250 = v249
			}
			v314 := 0x0 & v313
			v315 := v133
			var v316 uint64
			if v314 != 0 {
				v316 = v115
			} else {
				v316 = v315
			}
			v382 := 0x0 & v381
			v383 := v134
			var v384 uint64
			if v382 != 0 {
				v384 = v115
			} else {
				v384 = v383
			}
			v450 := 0x0 & v449
			v451 := v135
			var v452 uint64
			if v450 != 0 {
				v452 = v115
			} else {
				v452 = v451
			}
			var v457 uint64
			if v95 != 0 {
				v457 = v456
			} else {
				v457 = v86
			}
			v458 := v457
			var v469 uint64
			if v18 != 0 {
				v469 = 0x2
			} else {
				v469 = 0x1
			}
			v470 := v469
			v471 := v470
			s472 = 0x0
			s471 = v471
			s11 = v11
			s26 = v26
			s81 = v81
			s458 = v458
			s104 = v104
			s126 = v126
			s250 = v250
			s316 = v316
			s384 = v384
			s452 = v452
			s84 = 0x1
			s82 = v82
			s83 = v83
			s94 = 0x0
		case 0x2:
			v11 := v10
			v19 := 0x0 & v18
			var v26 uint64
			if v19 != 0 {
				v26 = 0x27
			} else {
				v26 = v25
			}
			v77 := 0x0 & v76
			v80 := v75
			var v81 uint64
			if v77 != 0 {
				v81 = v16
			} else {
				v81 = v80
			}
			v82 := v28
			v83 := v75
			v92 := 0x1 & v91
			v95 := 0x0 & v90
			v96 := (v92 | v95)
			var v104 uint64
			if v96 != 0 {
				v104 = 0x17
			} else {
				v104 = v103
			}
			v118 := 0x0 & v117
			var v126 uint64
			if v118 != 0 {
				v126 = 0x9
			} else {
				v126 = v125
			}
			v246 := 0x0 & v245
			v249 := v132
			var v250 uint64
			if v246 != 0 {
				v250 = v115
			} else {
				v250 = v249
			}
			v314 := 0x0 & v313
			v315 := v133
			var v316 uint64
			if v314 != 0 {
				v316 = v115
			} else {
				v316 = v315
			}
			v382 := 0x0 & v381
			v383 := v134
			var v384 uint64
			if v382 != 0 {
				v384 = v115
			} else {
				v384 = v383
			}
			v450 := 0x0 & v449
			v451 := v135
			var v452 uint64
			if v450 != 0 {
				v452 = v115
			} else {
				v452 = v451
			}
			var v457 uint64
			if v95 != 0 {
				v457 = v456
			} else {
				v457 = v86
			}
			v458 := v457
			var v467 uint64
			if v91 != 0 {
				v467 = 0x3
			} else {
				v467 = 0x2
			}
			v468 := v467
			v470 := v468
			v471 := v470
			s472 = 0x0
			s471 = v471
			s11 = v11
			s26 = v26
			s81 = v81
			s458 = v458
			s104 = v104
			s126 = v126
			s250 = v250
			s316 = v316
			s384 = v384
			s452 = v452
			s84 = 0x1
			s82 = v82
			s83 = v83
			s94 = 0x0
		case 0x3:
			v11 := v10
			v19 := 0x0 & v18
			var v26 uint64
			if v19 != 0 {
				v26 = 0x27
			} else {
				v26 = v25
			}
			v77 := 0x0 & v76
			v80 := v32
			var v81 uint64
			if v77 != 0 {
				v81 = v16
			} else {
				v81 = v80
			}
			v92 := 0x0 & v91
			v95 := 0x0 & v90
			v96 := (v92 | v95)
			var v104 uint64
			if v96 != 0 {
				v104 = 0x17
			} else {
				v104 = v103
			}
			v118 := 0x1 & v117
			var v126 uint64
			if v118 != 0 {
				v126 = 0x9
			} else {
				v126 = v125
			}
			v246 := 0x1 & v245
			v249 := v132
			var v250 uint64
			if v246 != 0 {
				v250 = v115
			} else {
				v250 = v249
			}
			v314 := 0x1 & v313
			v315 := v133
			var v316 uint64
			if v314 != 0 {
				v316 = v115
			} else {
				v316 = v315
			}
			v382 := 0x1 & v381
			v383 := v134
			var v384 uint64
			if v382 != 0 {
				v384 = v115
			} else {
				v384 = v383
			}
			v450 := 0x1 & v449
			v451 := v135
			var v452 uint64
			if v450 != 0 {
				v452 = v115
			} else {
				v452 = v451
			}
			var v457 uint64
			if v95 != 0 {
				v457 = v456
			} else {
				v457 = v86
			}
			v458 := v457
			var v465 uint64
			if v117 != 0 {
				v465 = 0x4
			} else {
				v465 = 0x3
			}
			v466 := v465
			v468 := v466
			v470 := v468
			v471 := v470
			s472 = 0x0
			s471 = v471
			s11 = v11
			s26 = v26
			s81 = v81
			s458 = v458
			s104 = v104
			s126 = v126
			s250 = v250
			s316 = v316
			s384 = v384
			s452 = v452
			s84 = 0x0
			s94 = 0x0
		case 0x4:
			v11 := v10
			v19 := 0x0 & v18
			var v26 uint64
			if v19 != 0 {
				v26 = 0x27
			} else {
				v26 = v25
			}
			v77 := 0x0 & v76
			v80 := v32
			var v81 uint64
			if v77 != 0 {
				v81 = v16
			} else {
				v81 = v80
			}
			v92 := 0x0 & v91
			v95 := 0x0 & v90
			v96 := (v92 | v95)
			var v104 uint64
			if v96 != 0 {
				v104 = 0x17
			} else {
				v104 = v103
			}
			v118 := 0x0 & v117
			var v126 uint64
			if v118 != 0 {
				v126 = 0x9
			} else {
				v126 = v125
			}
			v246 := 0x0 & v245
			v249 := v244
			var v250 uint64
			if v246 != 0 {
				v250 = v115
			} else {
				v250 = v249
			}
			v314 := 0x0 & v313
			v315 := v312
			var v316 uint64
			if v314 != 0 {
				v316 = v115
			} else {
				v316 = v315
			}
			v382 := 0x0 & v381
			v383 := v379
			var v384 uint64
			if v382 != 0 {
				v384 = v115
			} else {
				v384 = v383
			}
			v450 := 0x0 & v449
			v451 := v447
			var v452 uint64
			if v450 != 0 {
				v452 = v115
			} else {
				v452 = v451
			}
			var v457 uint64
			if v95 != 0 {
				v457 = v456
			} else {
				v457 = v86
			}
			v458 := v457
			var v463 uint64
			if v131 != 0 {
				v463 = 0x5
			} else {
				v463 = 0x4
			}
			v464 := v463
			v466 := v464
			v468 := v466
			v470 := v468
			v471 := v470
			s472 = 0x0
			s471 = v471
			s11 = v11
			s26 = v26
			s81 = v81
			s458 = v458
			s104 = v104
			s126 = v126
			s250 = v250
			s316 = v316
			s384 = v384
			s452 = v452
			s84 = 0x0
			s94 = 0x0
		case 0x5:
			v11 := v10
			v19 := 0x0 & v18
			var v26 uint64
			if v19 != 0 {
				v26 = 0x27
			} else {
				v26 = v25
			}
			v77 := 0x0 & v76
			v80 := v32
			var v81 uint64
			if v77 != 0 {
				v81 = v16
			} else {
				v81 = v80
			}
			v92 := 0x0 & v91
			v95 := 0x1 & v90
			v96 := (v92 | v95)
			var v104 uint64
			if v96 != 0 {
				v104 = 0x17
			} else {
				v104 = v103
			}
			v118 := 0x0 & v117
			var v126 uint64
			if v118 != 0 {
				v126 = 0x9
			} else {
				v126 = v125
			}
			v246 := 0x0 & v245
			v249 := v132
			var v250 uint64
			if v246 != 0 {
				v250 = v115
			} else {
				v250 = v249
			}
			v314 := 0x0 & v313
			v315 := v133
			var v316 uint64
			if v314 != 0 {
				v316 = v115
			} else {
				v316 = v315
			}
			v382 := 0x0 & v381
			v383 := v134
			var v384 uint64
			if v382 != 0 {
				v384 = v115
			} else {
				v384 = v383
			}
			v450 := 0x0 & v449
			v451 := v135
			var v452 uint64
			if v450 != 0 {
				v452 = v115
			} else {
				v452 = v451
			}
			var v457 uint64
			if v95 != 0 {
				v457 = v456
			} else {
				v457 = v86
			}
			v458 := v457
			v462 := v461
			v464 := v462
			v466 := v464
			v468 := v466
			v470 := v468
			v471 := v470
			s472 = 0x0
			s471 = v471
			s11 = v11
			s26 = v26
			s81 = v81
			s458 = v458
			s104 = v104
			s126 = v126
			s250 = v250
			s316 = v316
			s384 = v384
			s452 = v452
			s84 = 0x0
			s94 = 0x1
		case 0x6:
			v11 := v10
			v19 := 0x0 & v18
			var v26 uint64
			if v19 != 0 {
				v26 = 0x27
			} else {
				v26 = v25
			}
			v77 := 0x0 & v76
			v80 := v32
			var v81 uint64
			if v77 != 0 {
				v81 = v16
			} else {
				v81 = v80
			}
			v92 := 0x0 & v91
			v95 := 0x0 & v90
			v96 := (v92 | v95)
			var v104 uint64
			if v96 != 0 {
				v104 = 0x17
			} else {
				v104 = v103
			}
			v118 := 0x0 & v117
			var v126 uint64
			if v118 != 0 {
				v126 = 0x9
			} else {
				v126 = v125
			}
			v246 := 0x0 & v245
			v249 := v132
			var v250 uint64
			if v246 != 0 {
				v250 = v115
			} else {
				v250 = v249
			}
			v314 := 0x0 & v313
			v315 := v133
			var v316 uint64
			if v314 != 0 {
				v316 = v115
			} else {
				v316 = v315
			}
			v382 := 0x0 & v381
			v383 := v134
			var v384 uint64
			if v382 != 0 {
				v384 = v115
			} else {
				v384 = v383
			}
			v450 := 0x0 & v449
			v451 := v135
			var v452 uint64
			if v450 != 0 {
				v452 = v115
			} else {
				v452 = v451
			}
			var v457 uint64
			if v95 != 0 {
				v457 = v456
			} else {
				v457 = v86
			}
			v458 := v457
			s472 = 0x1
			s471 = 0x6
			s11 = v11
			s26 = v26
			s81 = v81
			s458 = v458
			s104 = v104
			s126 = v126
			s250 = v250
			s316 = v316
			s384 = v384
			s452 = v452
			s84 = 0x0
			s94 = 0x0
		default:
			var v4 uint64
			if v2 == 0x0 {
				v4 = 1
			}
			var v11 uint64
			if v4 != 0 {
				v11 = 0x3
			} else {
				v11 = v10
			}
			var v17 uint64
			if v2 == 0x1 {
				v17 = 1
			}
			v19 := v17 & v18
			var v26 uint64
			if v19 != 0 {
				v26 = 0x27
			} else {
				v26 = v25
			}
			v77 := v17 & v76
			var v79 uint64
			if v2 == 0x2 {
				v79 = 1
			}
			var v80 uint64
			if v79 != 0 {
				v80 = v75
			} else {
				v80 = v32
			}
			var v81 uint64
			if v77 != 0 {
				v81 = v16
			} else {
				v81 = v80
			}
			var v82 uint64
			if v17 != 0 {
				v82 = v13
			} else {
				v82 = v28
			}
			var v83 uint64
			if v17 != 0 {
				v83 = v16
			} else {
				v83 = v75
			}
			v84 := (v17 | v79)
			v92 := v79 & v91
			var v94 uint64
			if v2 == 0x5 {
				v94 = 1
			}
			v95 := v94 & v90
			v96 := (v92 | v95)
			var v104 uint64
			if v96 != 0 {
				v104 = 0x17
			} else {
				v104 = v103
			}
			var v116 uint64
			if v2 == 0x3 {
				v116 = 1
			}
			v118 := v116 & v117
			var v126 uint64
			if v118 != 0 {
				v126 = 0x9
			} else {
				v126 = v125
			}
			v246 := v116 & v245
			var v248 uint64
			if v2 == 0x4 {
				v248 = 1
			}
			var v249 uint64
			if v248 != 0 {
				v249 = v244
			} else {
				v249 = v132
			}
			var v250 uint64
			if v246 != 0 {
				v250 = v115
			} else {
				v250 = v249
			}
			v314 := v116 & v313
			var v315 uint64
			if v248 != 0 {
				v315 = v312
			} else {
				v315 = v133
			}
			var v316 uint64
			if v314 != 0 {
				v316 = v115
			} else {
				v316 = v315
			}
			v382 := v116 & v381
			var v383 uint64
			if v248 != 0 {
				v383 = v379
			} else {
				v383 = v134
			}
			var v384 uint64
			if v382 != 0 {
				v384 = v115
			} else {
				v384 = v383
			}
			v450 := v116 & v449
			var v451 uint64
			if v248 != 0 {
				v451 = v447
			} else {
				v451 = v135
			}
			var v452 uint64
			if v450 != 0 {
				v452 = v115
			} else {
				v452 = v451
			}
			var v457 uint64
			if v95 != 0 {
				v457 = v456
			} else {
				v457 = v86
			}
			var v458 uint64
			if v4 != 0 {
				v458 = v87
			} else {
				v458 = v457
			}
			var v462 uint64
			if v94 != 0 {
				v462 = v461
			} else {
				v462 = v2
			}
			var v463 uint64
			if v131 != 0 {
				v463 = 0x5
			} else {
				v463 = v2
			}
			var v464 uint64
			if v248 != 0 {
				v464 = v463
			} else {
				v464 = v462
			}
			var v465 uint64
			if v117 != 0 {
				v465 = 0x4
			} else {
				v465 = v2
			}
			var v466 uint64
			if v116 != 0 {
				v466 = v465
			} else {
				v466 = v464
			}
			var v467 uint64
			if v91 != 0 {
				v467 = 0x3
			} else {
				v467 = v2
			}
			var v468 uint64
			if v79 != 0 {
				v468 = v467
			} else {
				v468 = v466
			}
			var v469 uint64
			if v18 != 0 {
				v469 = 0x2
			} else {
				v469 = v2
			}
			var v470 uint64
			if v17 != 0 {
				v470 = v469
			} else {
				v470 = v468
			}
			var v471 uint64
			if v4 != 0 {
				v471 = 0x1
			} else {
				v471 = v470
			}
			var v472 uint64
			if v2 == 0x6 {
				v472 = 1
			}
			s472 = v472
			s471 = v471
			s11 = v11
			s26 = v26
			s81 = v81
			s458 = v458
			s104 = v104
			s126 = v126
			s250 = v250
			s316 = v316
			s384 = v384
			s452 = v452
			s84 = v84
			s82 = v82
			s83 = v83
			s94 = v94
		}
		if s472 != 0 {
			break
		}
		if s84 != 0 {
			if addr := uint64(s82); addr < uint64(len(m2)) {
				m2[addr] = s83
			}
		}
		if s94 != 0 {
			if addr := uint64(v252); addr < uint64(len(m1)) {
				m1[addr] = v132
			}
		}
		if s94 != 0 {
			if addr := uint64(v318); addr < uint64(len(m1)) {
				m1[addr] = v133
			}
		}
		if s94 != 0 {
			if addr := uint64(v387); addr < uint64(len(m1)) {
				m1[addr] = v134
			}
		}
		if s94 != 0 {
			if addr := uint64(v455); addr < uint64(len(m1)) {
				m1[addr] = v135
			}
		}
		v2 = s471
		v6 = s11
		v21 = s26
		v32 = s81
		v86 = s458
		v98 = s104
		v120 = s126
		v132 = s250
		v133 = s316
		v134 = s384
		v135 = s452
	}
	vals[2] = v2
	vals[6] = v6
	vals[21] = v21
	vals[32] = v32
	vals[86] = v86
	vals[98] = v98
	vals[120] = v120
	vals[132] = v132
	vals[133] = v133
	vals[134] = v134
	vals[135] = v135
	return n
}

func run_aes_ins(vals []uint64, mems [][]uint64, max uint64) uint64 {
	_ = vals[552]
	m0 := mems[0]
	m1 := mems[1]
	m2 := mems[2]
	m3 := mems[3]
	m4 := mems[4]
	v2 := vals[2]
	v6 := vals[6]
	v21 := vals[21]
	v32 := vals[32]
	v86 := vals[86]
	v98 := vals[98]
	v120 := vals[120]
	v132 := vals[132]
	v133 := vals[133]
	v134 := vals[134]
	v135 := vals[135]
	v476 := vals[476]
	v481 := vals[481]
	v486 := vals[486]
	v491 := vals[491]
	v496 := vals[496]
	v501 := vals[501]
	v505 := vals[505]
	v508 := vals[508]
	v511 := vals[511]
	v514 := vals[514]
	v517 := vals[517]
	v520 := vals[520]
	v523 := vals[523]
	v526 := vals[526]
	v529 := vals[529]
	v532 := vals[532]
	v535 := vals[535]
	v538 := vals[538]
	v541 := vals[541]
	v544 := vals[544]
	v547 := vals[547]
	v550 := vals[550]
	var n uint64
	for ; n < max; n++ {
		var v1 uint64
		if addr := uint64(0x0); addr < uint64(len(m0)) {
			v1 = m0[addr] & 0xffff
		}
		var v7 uint64
		if v6 != 0x0 {
			v7 = 1
		}
		v9 := (v6 - 0x1) & 0x7
		var v10 uint64
		if v7 != 0 {
			v10 = v9
		} else {
			v10 = v6
		}
		v13 := (0x3 - v6) & 0x3f
		v15 := (v13 + 0x1) & 0x3f
		var v16 uint64
		if addr := uint64(v15); addr < uint64(len(m0)) {
			v16 = m0[addr] & 0xffffffff
		}
		var v18 uint64
		if v6 == 0x0 {
			v18 = 1
		}
		var v23 uint64
		if v21 != 0x0 {
			v23 = 1
		}
		v24 := (v21 - 0x1) & 0x3f
		var v25 uint64
		if v23 != 0 {
			v25 = v24
		} else {
			v25 = v21
		}
		v28 := (0x2b - v21) & 0x3f
		v30 := (v28 - 0x4) & 0x3f
		var v31 uint64
		if addr := uint64(v30); addr < uint64(len(m2)) {
			v31 = m2[addr] & 0xffffffff
		}
		v34 := (v32 << 8) & 0xffffffff
		v36 := (v32 >> 24)
		v37 := (v34 | v36)
		v38 := (v37 >> 24)
		v40 := v38 & 0xff
		var v41 uint64
		if addr := uint64(v40); addr < uint64(len(m3)) {
			v41 = m3[addr] & 0xff
		}
		v43 := (v41 | 0x0)
		v44 := (v43 << 24) & 0xffffffff
		v46 := (v37 >> 16)
		v47 := v46 & 0xff
		var v48 uint64
		if addr := uint64(v47); addr < uint64(len(m3)) {
			v48 = m3[addr] & 0xff
		}
		v49 := (v48 | 0x0)
		v50 := (v49 << 16) & 0xffffffff
		v51 := (v44 | v50)
		v52 := (v37 >> 8)
		v53 := v52 & 0xff
		var v54 uint64
		if addr := uint64(v53); addr < uint64(len(m3)) {
			v54 = m3[addr] & 0xff
		}
		v55 := (v54 | 0x0)
		v56 := (v55 << 8) & 0xffffffff
		v57 := (v51 | v56)
		v58 := v37 & 0xff
		var v59 uint64
		if addr := uint64(v58); addr < uint64(len(m3)) {
			v59 = m3[addr] & 0xff
		}
		v60 := (v59 | 0x0)
		v62 := (v60 << 0) & 0xffffffff
		v63 := (v57 | v62)
		v65 := (v28 >> 2)
		v66 := (v65 - 0x1) & 0x3f
		v68 := v66 & 0xf
		var v69 uint64
		if addr := uint64(v68); addr < uint64(len(m4)) {
			v69 = m4[addr] & 0xffffffff
		}
		v70 := v28 & 0x3
		var v72 uint64
		if v70 == 0x0 {
			v72 = 1
		}
		v73 := (v63 ^ v69)
		var v74 uint64
		if v72 != 0 {
			v74 = v73
		} else {
			v74 = v32
		}
		v75 := (v31 ^ v74)
		var v76 uint64
		if v13 == 0x3 {
			v76 = 1
		}
		v87 := (v1 - 0x1) & 0xffff
		v88 := (v87 - v86) & 0xffff
		var v90 uint64
		if v86 != 0x0 {
			v90 = 1
		}
		var v91 uint64
		if v21 == 0x0 {
			v91 = 1
		}
		var v100 uint64
		if v98 != 0x0 {
			v100 = 1
		}
		v102 := (v98 - 0x1) & 0x1f
		var v103 uint64
		if v100 != 0 {
			v103 = v102
		} else {
			v103 = v98
		}
		v105 := (0x17 - v98) & 0x1f
		v106 := (v88 << 2) & 0xffff
		v107 := (v105 | 0x0)
		v108 := (v106 + v107) & 0xffff
		v110 := (v108 + 0x5) & 0xffff
		v112 := v110 & 0x3ff
		var v113 uint64
		if addr := uint64(v112); addr < uint64(len(m0)) {
			v113 = m0[addr] & 0xffffffff
		}
		var v114 uint64
		if addr := uint64(v105); addr < uint64(len(m2)) {
			v114 = m2[addr] & 0xffffffff
		}
		v115 := (v113 ^ v114)
		var v117 uint64
		if v98 == 0x0 {
			v117 = 1
		}
		var v122 uint64
		if v120 != 0x0 {
			v122 = 1
		}
		v124 := (v120 - 0x1) & 0xf
		var v125 uint64
		if v122 != 0 {
			v125 = v124
		} else {
			v125 = v120
		}
		v128 := (v120 | 0x0)
		v129 := (v128 << 2) & 0x3f
		v130 := (0x28 - v129) & 0x3f
		var v131 uint64
		if v120 == 0x0 {
			v131 = 1
		}
		v136 := (v132 >> 24)
		v137 := v136 & 0xff
		var v138 uint64
		if addr := uint64(v137); addr < uint64(len(m3)) {
			v138 = m3[addr] & 0xff
		}
		v139 := (v132 >> 16)
		v140 := v139 & 0xff
		var v141 uint64
		if addr := uint64(v140); addr < uint64(len(m3)) {
			v141 = m3[addr] & 0xff
		}
		v142 := (v132 >> 8)
		v143 := v142 & 0xff
		var v144 uint64
		if addr := uint64(v143); addr < uint64(len(m3)) {
			v144 = m3[addr] & 0xff
		}
		v145 := v132 & 0xff
		var v146 uint64
		if addr := uint64(v145); addr < uint64(len(m3)) {
			v146 = m3[addr] & 0xff
		}
		v147 := (v133 >> 24)
		v148 := v147 & 0xff
		var v149 uint64
		if addr := uint64(v148); addr < uint64(len(m3)) {
			v149 = m3[addr] & 0xff
		}
		v150 := (v133 >> 16)
		v151 := v150 & 0xff
		var v152 uint64
		if addr := uint64(v151); addr < uint64(len(m3)) {
			v152 = m3[addr] & 0xff
		}
		v153 := (v133 >> 8)
		v154 := v153 & 0xff
		var v155 uint64
		if addr := uint64(v154); addr < uint64(len(m3)) {
			v155 = m3[addr] & 0xff
		}
		v156 := v133 & 0xff
		var v157 uint64
		if addr := uint64(v156); addr < uint64(len(m3)) {
			v157 = m3[addr] & 0xff
		}
		v158 := (v134 >> 24)
		v159 := v158 & 0xff
		var v160 uint64
		if addr := uint64(v159); addr < uint64(len(m3)) {
			v160 = m3[addr] & 0xff
		}
		v161 := (v134 >> 16)
		v162 := v161 & 0xff
		var v163 uint64
		if addr := uint64(v162); addr < uint64(len(m3)) {
			v163 = m3[addr] & 0xff
		}
		v164 := (v134 >> 8)
		v165 := v164 & 0xff
		var v166 uint64
		if addr := uint64(v165); addr < uint64(len(m3)) {
			v166 = m3[addr] & 0xff
		}
		v167 := v134 & 0xff
		var v168 uint64
		if addr := uint64(v167); addr < uint64(len(m3)) {
			v168 = m3[addr] & 0xff
		}
		v169 := (v135 >> 24)
		v170 := v169 & 0xff
		var v171 uint64
		if addr := uint64(v170); addr < uint64(len(m3)) {
			v171 = m3[addr] & 0xff
		}
		v172 := (v135 >> 16)
		v173 := v172 & 0xff
		var v174 uint64
		if addr := uint64(v173); addr < uint64(len(m3)) {
			v174 = m3[addr] & 0xff
		}
		v175 := (v135 >> 8)
		v176 := v175 & 0xff
		var v177 uint64
		if addr := uint64(v176); addr < uint64(len(m3)) {
			v177 = m3[addr] & 0xff
		}
		v178 := v135 & 0xff
		var v179 uint64
		if addr := uint64(v178); addr < uint64(len(m3)) {
			v179 = m3[addr] & 0xff
		}
		v181 := (v138 >> 7)
		v183 := v181 & 0x1
		v185 := (v138 << 1) & 0xff
		var v188 uint64
		if v183 != 0 {
			v188 = 0x1b
		} else {
			v188 = 0x0
		}
		v189 := (v185 ^ v188)
		v190 := (v152 >> 7)
		v191 := v190 & 0x1
		v192 := (v152 << 1) & 0xff
		var v193 uint64
		if v191 != 0 {
			v193 = 0x1b
		} else {
			v193 = 0x0
		}
		v194 := (v192 ^ v193)
		v195 := (v194 ^ v152)
		v196 := (v189 ^ v195)
		v197 := (v196 ^ v166)
		v198 := (v197 ^ v179)
		v199 := (v138 ^ v194)
		v200 := (v166 >> 7)
		v201 := v200 & 0x1
		v202 := (v166 << 1) & 0xff
		var v203 uint64
		if v201 != 0 {
			v203 = 0x1b
		} else {
			v203 = 0x0
		}
		v204 := (v202 ^ v203)
		v205 := (v204 ^ v166)
		v206 := (v199 ^ v205)
		v207 := (v206 ^ v179)
		v208 := (v138 ^ v152)
		v209 := (v208 ^ v204)
		v210 := (v179 >> 7)
		v211 := v210 & 0x1
		v212 := (v179 << 1) & 0xff
		var v213 uint64
		if v211 != 0 {
			v213 = 0x1b
		} else {
			v213 = 0x0
		}
		v214 := (v212 ^ v213)
		v215 := (v214 ^ v179)
		v216 := (v209 ^ v215)
		v217 := (v189 ^ v138)
		v218 := (v217 ^ v152)
		v219 := (v218 ^ v166)
		v220 := (v219 ^ v214)
		v221 := (v198 | 0x0)
		v222 := (v221 << 24) & 0xffffffff
		v223 := (v207 | 0x0)
		v224 := (v223 << 16) & 0xffffffff
		v225 := (v222 | v224)
		v226 := (v216 | 0x0)
		v227 := (v226 << 8) & 0xffffffff
		v228 := (v225 | v227)
		v229 := (v220 | 0x0)
		v230 := (v228 | v229)
		v231 := (v138 | 0x0)
		v232 := (v231 << 24) & 0xffffffff
		v233 := (v152 | 0x0)
		v234 := (v233 << 16) & 0xffffffff
		v235 := (v232 | v234)
		v236 := (v166 | 0x0)
		v237 := (v236 << 8) & 0xffffffff
		v238 := (v235 | v237)
		v239 := (v179 | 0x0)
		v240 := (v238 | v239)
		var v241 uint64
		if v131 != 0 {
			v241 = v240
		} else {
			v241 = v230
		}
		v242 := (v130 + 0x0) & 0x3f
		var v243 uint64
		if addr := uint64(v242); addr < uint64(len(m2)) {
			v243 = m2[addr] & 0xffffffff
		}
		v244 := (v241 ^ v243)
		var v245 uint64
		if v105 == 0x0 {
			v245 = 1
		}
		v251 := (v106 + 0x0) & 0xffff
		v252 := v251 & 0x3ff
		v253 := (v149 >> 7)
		v254 := v253 & 0x1
		v255 := (v149 << 1) & 0xff
		var v256 uint64
		if v254 != 0 {
			v256 = 0x1b
		} else {
			v256 = 0x0
		}
		v257 := (v255 ^ v256)
		v258 := (v163 >> 7)
		v259 := v258 & 0x1
		v260 := (v163 << 1) & 0xff
		var v261 uint64
		if v259 != 0 {
			v261 = 0x1b
		} else {
			v261 = 0x0
		}
		v262 := (v260 ^ v261)
		v263 := (v262 ^ v163)
		v264 := (v257 ^ v263)
		v265 := (v264 ^ v177)
		v266 := (v265 ^ v146)
		v267 := (v149 ^ v262)
		v268 := (v177 >> 7)
		v269 := v268 & 0x1
		v270 := (v177 << 1) & 0xff
		var v271 uint64
		if v269 != 0 {
			v271 = 0x1b
		} else {
			v271 = 0x0
		}
		v272 := (v270 ^ v271)
		v273 := (v272 ^ v177)
		v274 := (v267 ^ v273)
		v275 := (v274 ^ v146)
		v276 := (v149 ^ v163)
		v277 := (v276 ^ v272)
		v278 := (v146 >> 7)
		v279 := v278 & 0x1
		v280 := (v146 << 1) & 0xff
		var v281 uint64
		if v279 != 0 {
			v281 = 0x1b
		} else {
			v281 = 0x0
		}
		v282 := (v280 ^ v281)
		v283 := (v282 ^ v146)
		v284 := (v277 ^ v283)
		v285 := (v257 ^ v149)
		v286 := (v285 ^ v163)
		v287 := (v286 ^ v177)
		v288 := (v287 ^ v282)
		v289 := (v266 | 0x0)
		v290 := (v289 << 24) & 0xffffffff
		v291 := (v275 | 0x0)
		v292 := (v291 << 16) & 0xffffffff
		v293 := (v290 | v292)
		v294 := (v284 | 0x0)
		v295 := (v294 << 8) & 0xffffffff
		v296 := (v293 | v295)
		v297 := (v288 | 0x0)
		v298 := (v296 | v297)
		v299 := (v149 | 0x0)
		v300 := (v299 << 24) & 0xffffffff
		v301 := (v163 | 0x0)
		v302 := (v301 << 16) & 0xffffffff
		v303 := (v300 | v302)
		v304 := (v177 | 0x0)
		v305 := (v304 << 8) & 0xffffffff
		v306 := (v303 | v305)
		v307 := (v146 | 0x0)
		v308 := (v306 | v307)
		var v309 uint64
		if v131 != 0 {
			v309 = v308
		} else {
			v309 = v298
		}
		v310 := (v130 + 0x1) & 0x3f
		var v311 uint64
		if addr := uint64(v310); addr < uint64(len(m2)) {
			v311 = m2[addr] & 0xffffffff
		}
		v312 := (v309 ^ v311)
		var v313 uint64
		if v105 == 0x1 {
			v313 = 1
		}
		v317 := (v106 + 0x1) & 0xffff
		v318 := v317 & 0x3ff
		v319 := (v160 >> 7)
		v320 := v319 & 0x1
		v321 := (v160 << 1) & 0xff
		var v322 uint64
		if v320 != 0 {
			v322 = 0x1b
		} else {
			v322 = 0x0
		}
		v323 := (v321 ^ v322)
		v324 := (v174 >> 7)
		v325 := v324 & 0x1
		v326 := (v174 << 1) & 0xff
		var v327 uint64
		if v325 != 0 {
			v327 = 0x1b
		} else {
			v327 = 0x0
		}
		v328 := (v326 ^ v327)
		v329 := (v328 ^ v174)
		v330 := (v323 ^ v329)
		v331 := (v330 ^ v144)
		v332 := (v331 ^ v157)
		v333 := (v160 ^ v328)
		v334 := (v144 >> 7)
		v335 := v334 & 0x1
		v336 := (v144 << 1) & 0xff
		var v337 uint64
		if v335 != 0 {
			v337 = 0x1b
		} else {
			v337 = 0x0
		}
		v338 := (v336 ^ v337)
		v339 := (v338 ^ v144)
		v340 := (v333 ^ v339)
		v341 := (v340 ^ v157)
		v342 := (v160 ^ v174)
		v343 := (v342 ^ v338)
		v344 := (v157 >> 7)
		v345 := v344 & 0x1
		v346 := (v157 << 1) & 0xff
		var v347 uint64
		if v345 != 0 {
			v347 = 0x1b
		} else {
			v347 = 0x0
		}
		v348 := (v346 ^ v347)
		v349 := (v348 ^ v157)
		v350 := (v343 ^ v349)
		v351 := (v323 ^ v160)
		v352 := (v351 ^ v174)
		v353 := (v352 ^ v144)
		v354 := (v353 ^ v348)
		v355 := (v332 | 0x0)
		v356 := (v355 << 24) & 0xffffffff
		v357 := (v341 | 0x0)
		v358 := (v357 << 16) & 0xffffffff
		v359 := (v356 | v358)
		v360 := (v350 | 0x0)
		v361 := (v360 << 8) & 0xffffffff
		v362 := (v359 | v361)
		v363 := (v354 | 0x0)
		v364 := (v362 | v363)
		v365 := (v160 | 0x0)
		v366 := (v365 << 24) & 0xffffffff
		v367 := (v174 | 0x0)
		v368 := (v367 << 16) & 0xffffffff
		v369 := (v366 | v368)
		v370 := (v144 | 0x0)
		v371 := (v370 << 8) & 0xffffffff
		v372 := (v369 | v371)
		v373 := (v157 | 0x0)
		v374 := (v372 | v373)
		var v375 uint64
		if v131 != 0 {
			v375 = v374
		} else {
			v375 = v364
		}
		v377 := (v130 + 0x2) & 0x3f
		var v378 uint64
		if addr := uint64(v377); addr < uint64(len(m2)) {
			v378 = m2[addr] & 0xffffffff
		}
		v379 := (v375 ^ v378)
		var v381 uint64
		if v105 == 0x2 {
			v381 = 1
		}
		v386 := (v106 + 0x2) & 0xffff
		v387 := v386 & 0x3ff
		v388 := (v171 >> 7)
		v389 := v388 & 0x1
		v390 := (v171 << 1) & 0xff
		var v391 uint64
		if v389 != 0 {
			v391 = 0x1b
		} else {
			v391 = 0x0
		}
		v392 := (v390 ^ v391)
		v393 := (v141 >> 7)
		v394 := v393 & 0x1
		v395 := (v141 << 1) & 0xff
		var v396 uint64
		if v394 != 0 {
			v396 = 0x1b
		} else {
			v396 = 0x0
		}
		v397 := (v395 ^ v396)
		v398 := (v397 ^ v141)
		v399 := (v392 ^ v398)
		v400 := (v399 ^ v155)
		v401 := (v400 ^ v168)
		v402 := (v171 ^ v397)
		v403 := (v155 >> 7)
		v404 := v403 & 0x1
		v405 := (v155 << 1) & 0xff
		var v406 uint64
		if v404 != 0 {
			v406 = 0x1b
		} else {
			v406 = 0x0
		}
		v407 := (v405 ^ v406)
		v408 := (v407 ^ v155)
		v409 := (v402 ^ v408)
		v410 := (v409 ^ v168)
		v411 := (v171 ^ v141)
		v412 := (v411 ^ v407)
		v413 := (v168 >> 7)
		v414 := v413 & 0x1
		v415 := (v168 << 1) & 0xff
		var v416 uint64
		if v414 != 0 {
			v416 = 0x1b
		} else {
			v416 = 0x0
		}
		v417 := (v415 ^ v416)
		v418 := (v417 ^ v168)
		v419 := (v412 ^ v418)
		v420 := (v392 ^ v171)
		v421 := (v420 ^ v141)
		v422 := (v421 ^ v155)
		v423 := (v422 ^ v417)
		v424 := (v401 | 0x0)
		v425 := (v424 << 24) & 0xffffffff
		v426 := (v410 | 0x0)
		v427 := (v426 << 16) & 0xffffffff
		v428 := (v425 | v427)
		v429 := (v419 | 0x0)
		v430 := (v429 << 8) & 0xffffffff
		v431 := (v428 | v430)
		v432 := (v423 | 0x0)
		v433 := (v431 | v432)
		v434 := (v171 | 0x0)
		v435 := (v434 << 24) & 0xffffffff
		v436 := (v141 | 0x0)
		v437 := (v436 << 16) & 0xffffffff
		v438 := (v435 | v437)
		v439 := (v155 | 0x0)
		v440 := (v439 << 8) & 0xffffffff
		v441 := (v438 | v440)
		v442 := (v168 | 0x0)
		v443 := (v441 | v442)
		var v444 uint64
		if v131 != 0 {
			v444 = v443
		} else {
			v444 = v433
		}
		v445 := (v130 + 0x3) & 0x3f
		var v446 uint64
		if addr := uint64(v445); addr < uint64(len(m2)) {
			v446 = m2[addr] & 0xffffffff
		}
		v447 := (v444 ^ v446)
		var v449 uint64
		if v105 == 0x3 {
			v449 = 1
		}
		v454 := (v106 + 0x3) & 0xffff
		v455 := v454 & 0x3ff
		v456 := (v86 - 0x1) & 0xffff
		var v459 uint64
		if v86 == 0x0 {
			v459 = 1
		}
		var v461 uint64
		if v459 != 0 {
			v461 = 0x6
		} else {
			v461 = 0x3
		}
		v477 := (v476 + 0x1) & 0xffffff
		v482 := (v481 + 0x1) & 0xffffff
		v487 := (v486 + 0x1) & 0xffffff
		v492 := (v491 + 0x1) & 0xffffff
		v497 := (v496 + 0x1) & 0xffffff
		v502 := (v501 + 0x1) & 0xffffff
		v506 := (v505 + 0x1) & 0xffffff
		v509 := (v508 + 0x1) & 0xffffff
		v512 := (v511 + 0x3) & 0xffffff
		v515 := (v514 + v6) & 0xffffff
		v518 := (v517 + 0x1) & 0xffffff
		v521 := (v520 + 0x27) & 0xffffff
		v524 := (v523 + v21) & 0xffffff
		v527 := (v526 + 0x1) & 0xffffff
		v530 := (v529 + v87) & 0xffffff
		v533 := (v532 + v86) & 0xffffff
		v536 := (v535 + 0x1) & 0xffffff
		v539 := (v538 + 0x17) & 0xffffff
		v542 := (v541 + v98) & 0xffffff
		v545 := (v544 + 0x1) & 0xffffff
		v548 := (v547 + 0x9) & 0xffffff
		v551 := (v550 + v120) & 0xffffff
		var s11, s26, s81, s82, s83, s84, s94, s104, s126, s250, s316, s384, s452, s458, s471, s472, s478, s483, s488, s493, s498, s503, s507, s510, s513, s516, s519, s522, s525, s528, s531, s534, s537, s540, s543, s546, s549, s552 uint64
		switch v2 {
		case 0x0:
			v19 := 0x0 & v18
			var v26 uint64
			if v19 != 0 {
				v26 = 0x27
			} else {
				v26 = v25
			}
			v77 := 0x0 & v76
			v80 := v32
			var v81 uint64
			if v77 != 0 {
				v81 = v16
			} else {
				v81 = v80
			}
			v92 := 0x0 & v91
			v95 := 0x0 & v90
			v96 := (v92 | v95)
			var v104 uint64
			if v96 != 0 {
				v104 = 0x17
			} else {
				v104 = v103
			}
			v118 := 0x0 & v117
			var v126 uint64
			if v118 != 0 {
				v126 = 0x9
			} else {
				v126 = v125
			}
			v246 := 0x0 & v245
			v249 := v132
			var v250 uint64
			if v246 != 0 {
				v250 = v115
			} else {
				v250 = v249
			}
			v314 := 0x0 & v313
			v315 := v133
			var v316 uint64
			if v314 != 0 {
				v316 = v115
			} else {
				v316 = v315
			}
			v382 := 0x0 & v381
			v383 := v134
			var v384 uint64
			if v382 != 0 {
				v384 = v115
			} else {
				v384 = v383
			}
			v450 := 0x0 & v449
			v451 := v135
			var v452 uint64
			if v450 != 0 {
				v452 = v115
			} else {
				v452 = v451
			}
			v458 := v87
			v478 := v477
			v483 := v481
			v488 := v486
			v493 := v491
			v498 := v496
			v503 := v501
			v507 := v505
			v510 := v509
			v513 := v512
			v516 := v515
			var v519 uint64
			if v19 != 0 {
				v519 = v518
			} else {
				v519 = v517
			}
			var v522 uint64
			if v19 != 0 {
				v522 = v521
			} else {
				v522 = v520
			}
			var v525 uint64
			if v19 != 0 {
				v525 = v524
			} else {
				v525 = v523
			}
			v528 := v527
			v531 := v530
			v534 := v533
			var v537 uint64
			if v96 != 0 {
				v537 = v536
			} else {
				v537 = v535
			}
			var v540 uint64
			if v96 != 0 {
				v540 = v539
			} else {
				v540 = v538
			}
			var v543 uint64
			if v96 != 0 {
				v543 = v542
			} else {
				v543 = v541
			}
			var v546 uint64
			if v118 != 0 {
				v546 = v545
			} else {
				v546 = v544
			}
			var v549 uint64
			if v118 != 0 {
				v549 = v548
			} else {
				v549 = v547
			}
			var v552 uint64
			if v118 != 0 {
				v552 = v551
			} else {
				v552 = v550
			}
			s472 = 0x0
			s471 = 0x1
			s11 = 0x3
			s26 = v26
			s81 = v81
			s458 = v458
			s104 = v104
			s126 = v126
			s250 = v250
			s316 = v316
			s384 = v384
			s452 = v452
			s478 = v478
			s483 = v483
			s488 = v488
			s493 = v493
			s498 = v498
			s503 = v503
			s507 = v507
			s510 = v510
			s513 = v513
			s516 = v516
			s519 = v519
			s522 = v522
			s525 = v525
			s528 = v528
			s531 = v531
			s534 = v534
			s537 = v537
			s540 = v540
			s543 = v543
			s546 = v546
			s549 = v549
			s552 = v552
			s84 = 0x0
			s94 = 0x0
		case 0x1:
			v11 := v10
			v19 := 0x1 & v18
			var v26 uint64
			if v19 != 0 {
				v26 = 0x27
			} else {
				v26 = v25
			}
			v77 := 0x1 & v76
			v80 := v32
			var v81 uint64
			if v77 != 0 {
				v81 = v16
			} else {
				v81 = v80
			}
			v82 := v13
			v83 := v16
			v92 := 0x0 & v91
			v95 := 0x0 & v90
			v96 := (v92 | v95)
			var v104 uint64
			if v96 != 0 {
				v104 = 0x17
			} else {
				v104 = v103
			}
			v118 := 0x0 & v117
			var v126 uint64
			if v118 != 0 {
				v126 = 0x9
			} else {
				v126 = v125
			}
			v246 := 0x0 & v245
			v249 := v132
			var v250 uint64
			if v246 != 0 {
				v250 = v115
			} else {
				v250 = v249
			}
			v314 := 0x0 & v313
			v315 := v133
			var v316 uint64
			if v314 != 0 {
				v316 = v115
			} else {
				v316 = v315
			}
			v382 := 0x0 & v381
			v383 := v134
			var v384 uint64
			if v382 != 0 {
				v384 = v115
			} else {
				v384 = v383
			}
			v450 := 0x0 & v449
			v451 := v135
			var v452 uint64
			if v450 != 0 {
				v452 = v115
			} else {
				v452 = v451
			}
			var v457 uint64
			if v95 != 0 {
				v457 = v456
			} else {
				v457 = v86
			}
			v458 := v457
			var v469 uint64
			if v18 != 0 {
				v469 = 0x2
			} else {
				v469 = 0x1
			}
			v470 := v469
			v471 := v470
			var v473 uint64
			if v471 == 0x1 {
				v473 = 1
			}
			v474 := 0x0 & v473
			var v478 uint64
			if v474 != 0 {
				v478 = v477
			} else {
				v478 = v476
			}
			var v479 uint64
			if v471 == 0x2 {
				v479 = 1
			}
			v480 := 0x1 & v479
			var v483 uint64
			if v480 != 0 {
				v483 = v482
			} else {
				v483 = v481
			}
			var v484 uint64
			if v471 == 0x3 {
				v484 = 1
			}
			v485 := 0x0 & v484
			var v488 uint64
			if v485 != 0 {
				v488 = v487
			} else {
				v488 = v486
			}
			var v489 uint64
			if v471 == 0x4 {
				v489 = 1
			}
			v490 := 0x0 & v489
			var v493 uint64
			if v490 != 0 {
				v493 = v492
			} else {
				v493 = v491
			}
			var v494 uint64
			if v471 == 0x5 {
				v494 = 1
			}
			v495 := 0x0 & v494
			var v498 uint64
			if v495 != 0 {
				v498 = v497
			} else {
				v498 = v496
			}
			var v499 uint64
			if v471 == 0x6 {
				v499 = 1
			}
			v500 := 0x0 & v499
			var v503 uint64
			if v500 != 0 {
				v503 = v502
			} else {
				v503 = v501
			}
			v504 := 0x0 & v484
			var v507 uint64
			if v504 != 0 {
				v507 = v506
			} else {
				v507 = v505
			}
			v510 := v508
			v513 := v511
			v516 := v514
			var v519 uint64
			if v19 != 0 {
				v519 = v518
			} else {
				v519 = v517
			}
			var v522 uint64
			if v19 != 0 {
				v522 = v521
			} else {
				v522 = v520
			}
			var v525 uint64
			if v19 != 0 {
				v525 = v524
			} else {
				v525 = v523
			}
			v528 := v526
			v531 := v529
			v534 := v532
			var v537 uint64
			if v96 != 0 {
				v537 = v536
			} else {
				v537 = v535
			}
			var v540 uint64
			if v96 != 0 {
				v540 = v539
			} else {
				v540 = v538
			}
			var v543 uint64
			if v96 != 0 {
				v543 = v542
			} else {
				v543 = v541
			}
			var v546 uint64
			if v118 != 0 {
				v546 = v545
			} else {
				v546 = v544
			}
			var v549 uint64
			if v118 != 0 {
				v549 = v548
			} else {
				v549 = v547
			}
			var v552 uint64
			if v118 != 0 {
				v552 = v551
			} else {
				v552 = v550
			}
			s472 = 0x0
			s471 = v471
			s11 = v11
			s26 = v26
			s81 = v81
			s458 = v458
			s104 = v104
			s126 = v126
			s250 = v250
			s316 = v316
			s384 = v384
			s452 = v452
			s478 = v478
			s483 = v483
			s488 = v488
			s493 = v493
			s498 = v498
			s503 = v503
			s507 = v507
			s510 = v510
			s513 = v513
			s516 = v516
			s519 = v519
			s522 = v522
			s525 = v525
			s528 = v528
			s531 = v531
			s534 = v534
			s537 = v537
			s540 = v540
			s543 = v543
			s546 = v546
			s549 = v549
			s552 = v552
			s84 = 0x1
			s82 = v82
			s83 = v83
			s94 = 0x0
		case 0x2:
			v11 := v10
			v19 := 0x0 & v18
			var v26 uint64
			if v19 != 0 {
				v26 = 0x27
			} else {
				v26 = v25
			}
			v77 := 0x0 & v76
			v80 := v75
			var v81 uint64
			if v77 != 0 {
				v81 = v16
			} else {
				v81 = v80
			}
			v82 := v28
			v83 := v75
			v92 := 0x1 & v91
			v95 := 0x0 & v90
			v96 := (v92 | v95)
			var v104 uint64
			if v96 != 0 {
				v104 = 0x17
			} else {
				v104 = v103
			}
			v118 := 0x0 & v117
			var v126 uint64
			if v118 != 0 {
				v126 = 0x9
			} else {
				v126 = v125
			}
			v246 := 0x0 & v245
			v249 := v132
			var v250 uint64
			if v246 != 0 {
				v250 = v115
			} else {
				v250 = v249
			}
			v314 := 0x0 & v313
			v315 := v133
			var v316 uint64
			if v314 != 0 {
				v316 = v115
			} else {
				v316 = v315
			}
			v382 := 0x0 & v381
			v383 := v134
			var v384 uint64
			if v382 != 0 {
				v384 = v115
			} else {
				v384 = v383
			}
			v450 := 0x0 & v449
			v451 := v135
			var v452 uint64
			if v450 != 0 {
				v452 = v115
			} else {
				v452 = v451
			}
			var v457 uint64
			if v95 != 0 {
				v457 = v456
			} else {
				v457 = v86
			}
			v458 := v457
			var v467 uint64
			if v91 != 0 {
				v467 = 0x3
			} else {
				v467 = 0x2
			}
			v468 := v467
			v470 := v468
			v471 := v470
			var v473 uint64
			if v471 == 0x1 {
				v473 = 1
			}
			v474 := 0x0 & v473
			var v478 uint64
			if v474 != 0 {
				v478 = v477
			} else {
				v478 = v476
			}
			var v479 uint64
			if v471 == 0x2 {
				v479 = 1
			}
			v480 := 0x0 & v479
			var v483 uint64
			if v480 != 0 {
				v483 = v482
			} else {
				v483 = v481
			}
			var v484 uint64
			if v471 == 0x3 {
				v484 = 1
			}
			v485 := 0x1 & v484
			var v488 uint64
			if v485 != 0 {
				v488 = v487
			} else {
				v488 = v486
			}
			var v489 uint64
			if v471 == 0x4 {
				v489 = 1
			}
			v490 := 0x0 & v489
			var v493 uint64
			if v490 != 0 {
				v493 = v492
			} else {
				v493 = v491
			}
			var v494 uint64
			if v471 == 0x5 {
				v494 = 1
			}
			v495 := 0x0 & v494
			var v498 uint64
			if v495 != 0 {
				v498 = v497
			} else {
				v498 = v496
			}
			var v499 uint64
			if v471 == 0x6 {
				v499 = 1
			}
			v500 := 0x0 & v499
			var v503 uint64
			if v500 != 0 {
				v503 = v502
			} else {
				v503 = v501
			}
			v504 := 0x0 & v484
			var v507 uint64
			if v504 != 0 {
				v507 = v506
			} else {
				v507 = v505
			}
			v510 := v508
			v513 := v511
			v516 := v514
			var v519 uint64
			if v19 != 0 {
				v519 = v518
			} else {
				v519 = v517
			}
			var v522 uint64
			if v19 != 0 {
				v522 = v521
			} else {
				v522 = v520
			}
			var v525 uint64
			if v19 != 0 {
				v525 = v524
			} else {
				v525 = v523
			}
			v528 := v526
			v531 := v529
			v534 := v532
			var v537 uint64
			if v96 != 0 {
				v537 = v536
			} else {
				v537 = v535
			}
			var v540 uint64
			if v96 != 0 {
				v540 = v539
			} else {
				v540 = v538
			}
			var v543 uint64
			if v96 != 0 {
				v543 = v542
			} else {
				v543 = v541
			}
			var v546 uint64
			if v118 != 0 {
				v546 = v545
			} else {
				v546 = v544
			}
			var v549 uint64
			if v118 != 0 {
				v549 = v548
			} else {
				v549 = v547
			}
			var v552 uint64
			if v118 != 0 {
				v552 = v551
			} else {
				v552 = v550
			}
			s472 = 0x0
			s471 = v471
			s11 = v11
			s26 = v26
			s81 = v81
			s458 = v458
			s104 = v104
			s126 = v126
			s250 = v250
			s316 = v316
			s384 = v384
			s452 = v452
			s478 = v478
			s483 = v483
			s488 = v488
			s493 = v493
			s498 = v498
			s503 = v503
			s507 = v507
			s510 = v510
			s513 = v513
			s516 = v516
			s519 = v519
			s522 = v522
			s525 = v525
			s528 = v528
			s531 = v531
			s534 = v534
			s537 = v537
			s540 = v540
			s543 = v543
			s546 = v546
			s549 = v549
			s552 = v552
			s84 = 0x1
			s82 = v82
			s83 = v83
			s94 = 0x0
		case 0x3:
			v11 := v10
			v19 := 0x0 & v18
			var v26 uint64
			if v19 != 0 {
				v26 = 0x27
			} else {
				v26 = v25
			}
			v77 := 0x0 & v76
			v80 := v32
			var v81 uint64
			if v77 != 0 {
				v81 = v16
			} else {
				v81 = v80
			}
			v92 := 0x0 & v91
			v95 := 0x0 & v90
			v96 := (v92 | v95)
			var v104 uint64
			if v96 != 0 {
				v104 = 0x17
			} else {
				v104 = v103
			}
			v118 := 0x1 & v117
			var v126 uint64
			if v118 != 0 {
				v126 = 0x9
			} else {
				v126 = v125
			}
			v246 := 0x1 & v245
			v249 := v132
			var v250 uint64
			if v246 != 0 {
				v250 = v115
			} else {
				v250 = v249
			}
			v314 := 0x1 & v313
			v315 := v133
			var v316 uint64
			if v314 != 0 {
				v316 = v115
			} else {
				v316 = v315
			}
			v382 := 0x1 & v381
			v383 := v134
			var v384 uint64
			if v382 != 0 {
				v384 = v115
			} else {
				v384 = v383
			}
			v450 := 0x1 & v449
			v451 := v135
			var v452 uint64
			if v450 != 0 {
				v452 = v115
			} else {
				v452 = v451
			}
			var v457 uint64
			if v95 != 0 {
				v457 = v456
			} else {
				v457 = v86
			}
			v458 := v457
			var v465 uint64
			if v117 != 0 {
				v465 = 0x4
			} else {
				v465 = 0x3
			}
			v466 := v465
			v468 := v466
			v470 := v468
			v471 := v470
			var v473 uint64
			if v471 == 0x1 {
				v473 = 1
			}
			v474 := 0x0 & v473
			var v478 uint64
			if v474 != 0 {
				v478 = v477
			} else {
				v478 = v476
			}
			var v479 uint64
			if v471 == 0x2 {
				v479 = 1
			}
			v480 := 0x0 & v479
			var v483 uint64
			if v480 != 0 {
				v483 = v482
			} else {
				v483 = v481
			}
			var v484 uint64
			if v471 == 0x3 {
				v484 = 1
			}
			v485 := 0x0 & v484
			var v488 uint64
			if v485 != 0 {
				v488 = v487
			} else {
				v488 = v486
			}
			var v489 uint64
			if v471 == 0x4 {
				v489 = 1
			}
			v490 := 0x1 & v489
			var v493 uint64
			if v490 != 0 {
				v493 = v492
			} else {
				v493 = v491
			}
			var v494 uint64
			if v471 == 0x5 {
				v494 = 1
			}
			v495 := 0x0 & v494
			var v498 uint64
			if v495 != 0 {
				v498 = v497
			} else {
				v498 = v496
			}
			var v499 uint64
			if v471 == 0x6 {
				v499 = 1
			}
			v500 := 0x0 & v499
			var v503 uint64
			if v500 != 0 {
				v503 = v502
			} else {
				v503 = v501
			}
			v504 := 0x0 & v484
			var v507 uint64
			if v504 != 0 {
				v507 = v506
			} else {
				v507 = v505
			}
			v510 := v508
			v513 := v511
			v516 := v514
			var v519 uint64
			if v19 != 0 {
				v519 = v518
			} else {
				v519 = v517
			}
			var v522 uint64
			if v19 != 0 {
				v522 = v521
			} else {
				v522 = v520
			}
			var v525 uint64
			if v19 != 0 {
				v525 = v524
			} else {
				v525 = v523
			}
			v528 := v526
			v531 := v529
			v534 := v532
			var v537 uint64
			if v96 != 0 {
				v537 = v536
			} else {
				v537 = v535
			}
			var v540 uint64
			if v96 != 0 {
				v540 = v539
			} else {
				v540 = v538
			}
			var v543 uint64
			if v96 != 0 {
				v543 = v542
			} else {
				v543 = v541
			}
			var v546 uint64
			if v118 != 0 {
				v546 = v545
			} else {
				v546 = v544
			}
			var v549 uint64
			if v118 != 0 {
				v549 = v548
			} else {
				v549 = v547
			}
			var v552 uint64
			if v118 != 0 {
				v552 = v551
			} else {
				v552 = v550
			}
			s472 = 0x0
			s471 = v471
			s11 = v11
			s26 = v26
			s81 = v81
			s458 = v458
			s104 = v104
			s126 = v126
			s250 = v250
			s316 = v316
			s384 = v384
			s452 = v452
			s478 = v478
			s483 = v483
			s488 = v488
			s493 = v493
			s498 = v498
			s503 = v503
			s507 = v507
			s510 = v510
			s513 = v513
			s516 = v516
			s519 = v519
			s522 = v522
			s525 = v525
			s528 = v528
			s531 = v531
			s534 = v534
			s537 = v537
			s540 = v540
			s543 = v543
			s546 = v546
			s549 = v549
			s552 = v552
			s84 = 0x0
			s94 = 0x0
		case 0x4:
			v11 := v10
			v19 := 0x0 & v18
			var v26 uint64
			if v19 != 0 {
				v26 = 0x27
			} else {
				v26 = v25
			}
			v77 := 0x0 & v76
			v80 := v32
			var v81 uint64
			if v77 != 0 {
				v81 = v16
			} else {
				v81 = v80
			}
			v92 := 0x0 & v91
			v95 := 0x0 & v90
			v96 := (v92 | v95)
			var v104 uint64
			if v96 != 0 {
				v104 = 0x17
			} else {
				v104 = v103
			}
			v118 := 0x0 & v117
			var v126 uint64
			if v118 != 0 {
				v126 = 0x9
			} else {
				v126 = v125
			}
			v246 := 0x0 & v245
			v249 := v244
			var v250 uint64
			if v246 != 0 {
				v250 = v115
			} else {
				v250 = v249
			}
			v314 := 0x0 & v313
			v315 := v312
			var v316 uint64
			if v314 != 0 {
				v316 = v115
			} else {
				v316 = v315
			}
			v382 := 0x0 & v381
			v383 := v379
			var v384 uint64
			if v382 != 0 {
				v384 = v115
			} else {
				v384 = v383
			}
			v450 := 0x0 & v449
			v451 := v447
			var v452 uint64
			if v450 != 0 {
				v452 = v115
			} else {
				v452 = v451
			}
			var v457 uint64
			if v95 != 0 {
				v457 = v456
			} else {
				v457 = v86
			}
			v458 := v457
			var v463 uint64
			if v131 != 0 {
				v463 = 0x5
			} else {
				v463 = 0x4
			}
			v464 := v463
			v466 := v464
			v468 := v466
			v470 := v468
			v471 := v470
			var v473 uint64
			if v471 == 0x1 {
				v473 = 1
			}
			v474 := 0x0 & v473
			var v478 uint64
			if v474 != 0 {
				v478 = v477
			} else {
				v478 = v476
			}
			var v479 uint64
			if v471 == 0x2 {
				v479 = 1
			}
			v480 := 0x0 & v479
			var v483 uint64
			if v480 != 0 {
				v483 = v482
			} else {
				v483 = v481
			}
			var v484 uint64
			if v471 == 0x3 {
				v484 = 1
			}
			v485 := 0x0 & v484
			var v488 uint64
			if v485 != 0 {
				v488 = v487
			} else {
				v488 = v486
			}
			var v489 uint64
			if v471 == 0x4 {
				v489 = 1
			}
			v490 := 0x0 & v489
			var v493 uint64
			if v490 != 0 {
				v493 = v492
			} else {
				v493 = v491
			}
			var v494 uint64
			if v471 == 0x5 {
				v494 = 1
			}
			v495 := 0x1 & v494
			var v498 uint64
			if v495 != 0 {
				v498 = v497
			} else {
				v498 = v496
			}
			var v499 uint64
			if v471 == 0x6 {
				v499 = 1
			}
			v500 := 0x0 & v499
			var v503 uint64
			if v500 != 0 {
				v503 = v502
			} else {
				v503 = v501
			}
			v504 := 0x0 & v484
			var v507 uint64
			if v504 != 0 {
				v507 = v506
			} else {
				v507 = v505
			}
			v510 := v508
			v513 := v511
			v516 := v514
			var v519 uint64
			if v19 != 0 {
				v519 = v518
			} else {
				v519 = v517
			}
			var v522 uint64
			if v19 != 0 {
				v522 = v521
			} else {
				v522 = v520
			}
			var v525 uint64
			if v19 != 0 {
				v525 = v524
			} else {
				v525 = v523
			}
			v528 := v526
			v531 := v529
			v534 := v532
			var v537 uint64
			if v96 != 0 {
				v537 = v536
			} else {
				v537 = v535
			}
			var v540 uint64
			if v96 != 0 {
				v540 = v539
			} else {
				v540 = v538
			}
			var v543 uint64
			if v96 != 0 {
				v543 = v542
			} else {
				v543 = v541
			}
			var v546 uint64
			if v118 != 0 {
				v546 = v545
			} else {
				v546 = v544
			}
			var v549 uint64
			if v118 != 0 {
				v549 = v548
			} else {
				v549 = v547
			}
			var v552 uint64
			if v118 != 0 {
				v552 = v551
			} else {
				v552 = v550
			}
			s472 = 0x0
			s471 = v471
			s11 = v11
			s26 = v26
			s81 = v81
			s458 = v458
			s104 = v104
			s126 = v126
			s250 = v250
			s316 = v316
			s384 = v384
			s452 = v452
			s478 = v478
			s483 = v483
			s488 = v488
			s493 = v493
			s498 = v498
			s503 = v503
			s507 = v507
			s510 = v510
			s513 = v513
			s516 = v516
			s519 = v519
			s522 = v522
			s525 = v525
			s528 = v528
			s531 = v531
			s534 = v534
			s537 = v537
			s540 = v540
			s543 = v543
			s546 = v546
			s549 = v549
			s552 = v552
			s84 = 0x0
			s94 = 0x0
		case 0x5:
			v11 := v10
			v19 := 0x0 & v18
			var v26 uint64
			if v19 != 0 {
				v26 = 0x27
			} else {
				v26 = v25
			}
			v77 := 0x0 & v76
			v80 := v32
			var v81 uint64
			if v77 != 0 {
				v81 = v16
			} else {
				v81 = v80
			}
			v92 := 0x0 & v91
			v95 := 0x1 & v90
			v96 := (v92 | v95)
			var v104 uint64
			if v96 != 0 {
				v104 = 0x17
			} else {
				v104 = v103
			}
			v118 := 0x0 & v117
			var v126 uint64
			if v118 != 0 {
				v126 = 0x9
			} else {
				v126 = v125
			}
			v246 := 0x0 & v245
			v249 := v132
			var v250 uint64
			if v246 != 0 {
				v250 = v115
			} else {
				v250 = v249
			}
			v314 := 0x0 & v313
			v315 := v133
			var v316 uint64
			if v314 != 0 {
				v316 = v115
			} else {
				v316 = v315
			}
			v382 := 0x0 & v381
			v383 := v134
			var v384 uint64
			if v382 != 0 {
				v384 = v115
			} else {
				v384 = v383
			}
			v450 := 0x0 & v449
			v451 := v135
			var v452 uint64
			if v450 != 0 {
				v452 = v115
			} else {
				v452 = v451
			}
			var v457 uint64
			if v95 != 0 {
				v457 = v456
			} else {
				v457 = v86
			}
			v458 := v457
			v462 := v461
			v464 := v462
			v466 := v464
			v468 := v466
			v470 := v468
			v471 := v470
			var v473 uint64
			if v471 == 0x1 {
				v473 = 1
			}
			v474 := 0x0 & v473
			var v478 uint64
			if v474 != 0 {
				v478 = v477
			} else {
				v478 = v476
			}
			var v479 uint64
			if v471 == 0x2 {
				v479 = 1
			}
			v480 := 0x0 & v479
			var v483 uint64
			if v480 != 0 {
				v483 = v482
			} else {
				v483 = v481
			}
			var v484 uint64
			if v471 == 0x3 {
				v484 = 1
			}
			v485 := 0x0 & v484
			var v488 uint64
			if v485 != 0 {
				v488 = v487
			} else {
				v488 = v486
			}
			var v489 uint64
			if v471 == 0x4 {
				v489 = 1
			}
			v490 := 0x0 & v489
			var v493 uint64
			if v490 != 0 {
				v493 = v492
			} else {
				v493 = v491
			}
			var v494 uint64
			if v471 == 0x5 {
				v494 = 1
			}
			v495 := 0x0 & v494
			var v498 uint64
			if v495 != 0 {
				v498 = v497
			} else {
				v498 = v496
			}
			var v499 uint64
			if v471 == 0x6 {
				v499 = 1
			}
			v500 := 0x1 & v499
			var v503 uint64
			if v500 != 0 {
				v503 = v502
			} else {
				v503 = v501
			}
			v504 := 0x1 & v484
			var v507 uint64
			if v504 != 0 {
				v507 = v506
			} else {
				v507 = v505
			}
			v510 := v508
			v513 := v511
			v516 := v514
			var v519 uint64
			if v19 != 0 {
				v519 = v518
			} else {
				v519 = v517
			}
			var v522 uint64
			if v19 != 0 {
				v522 = v521
			} else {
				v522 = v520
			}
			var v525 uint64
			if v19 != 0 {
				v525 = v524
			} else {
				v525 = v523
			}
			v528 := v526
			v531 := v529
			v534 := v532
			var v537 uint64
			if v96 != 0 {
				v537 = v536
			} else {
				v537 = v535
			}
			var v540 uint64
			if v96 != 0 {
				v540 = v539
			} else {
				v540 = v538
			}
			var v543 uint64
			if v96 != 0 {
				v543 = v542
			} else {
				v543 = v541
			}
			var v546 uint64
			if v118 != 0 {
				v546 = v545
			} else {
				v546 = v544
			}
			var v549 uint64
			if v118 != 0 {
				v549 = v548
			} else {
				v549 = v547
			}
			var v552 uint64
			if v118 != 0 {
				v552 = v551
			} else {
				v552 = v550
			}
			s472 = 0x0
			s471 = v471
			s11 = v11
			s26 = v26
			s81 = v81
			s458 = v458
			s104 = v104
			s126 = v126
			s250 = v250
			s316 = v316
			s384 = v384
			s452 = v452
			s478 = v478
			s483 = v483
			s488 = v488
			s493 = v493
			s498 = v498
			s503 = v503
			s507 = v507
			s510 = v510
			s513 = v513
			s516 = v516
			s519 = v519
			s522 = v522
			s525 = v525
			s528 = v528
			s531 = v531
			s534 = v534
			s537 = v537
			s540 = v540
			s543 = v543
			s546 = v546
			s549 = v549
			s552 = v552
			s84 = 0x0
			s94 = 0x1
		case 0x6:
			v11 := v10
			v19 := 0x0 & v18
			var v26 uint64
			if v19 != 0 {
				v26 = 0x27
			} else {
				v26 = v25
			}
			v77 := 0x0 & v76
			v80 := v32
			var v81 uint64
			if v77 != 0 {
				v81 = v16
			} else {
				v81 = v80
			}
			v92 := 0x0 & v91
			v95 := 0x0 & v90
			v96 := (v92 | v95)
			var v104 uint64
			if v96 != 0 {
				v104 = 0x17
			} else {
				v104 = v103
			}
			v118 := 0x0 & v117
			var v126 uint64
			if v118 != 0 {
				v126 = 0x9
			} else {
				v126 = v125
			}
			v246 := 0x0 & v245
			v249 := v132
			var v250 uint64
			if v246 != 0 {
				v250 = v115
			} else {
				v250 = v249
			}
			v314 := 0x0 & v313
			v315 := v133
			var v316 uint64
			if v314 != 0 {
				v316 = v115
			} else {
				v316 = v315
			}
			v382 := 0x0 & v381
			v383 := v134
			var v384 uint64
			if v382 != 0 {
				v384 = v115
			} else {
				v384 = v383
			}
			v450 := 0x0 & v449
			v451 := v135
			var v452 uint64
			if v450 != 0 {
				v452 = v115
			} else {
				v452 = v451
			}
			var v457 uint64
			if v95 != 0 {
				v457 = v456
			} else {
				v457 = v86
			}
			v458 := v457
			v478 := v476
			v483 := v481
			v488 := v486
			v493 := v491
			v498 := v496
			v503 := v501
			v507 := v505
			v510 := v508
			v513 := v511
			v516 := v514
			var v519 uint64
			if v19 != 0 {
				v519 = v518
			} else {
				v519 = v517
			}
			var v522 uint64
			if v19 != 0 {
				v522 = v521
			} else {
				v522 = v520
			}
			var v525 uint64
			if v19 != 0 {
				v525 = v524
			} else {
				v525 = v523
			}
			v528 := v526
			v531 := v529
			v534 := v532
			var v537 uint64
			if v96 != 0 {
				v537 = v536
			} else {
				v537 = v535
			}
			var v540 uint64
			if v96 != 0 {
				v540 = v539
			} else {
				v540 = v538
			}
			var v543 uint64
			if v96 != 0 {
				v543 = v542
			} else {
				v543 = v541
			}
			var v546 uint64
			if v118 != 0 {
				v546 = v545
			} else {
				v546 = v544
			}
			var v549 uint64
			if v118 != 0 {
				v549 = v548
			} else {
				v549 = v547
			}
			var v552 uint64
			if v118 != 0 {
				v552 = v551
			} else {
				v552 = v550
			}
			s472 = 0x1
			s471 = 0x6
			s11 = v11
			s26 = v26
			s81 = v81
			s458 = v458
			s104 = v104
			s126 = v126
			s250 = v250
			s316 = v316
			s384 = v384
			s452 = v452
			s478 = v478
			s483 = v483
			s488 = v488
			s493 = v493
			s498 = v498
			s503 = v503
			s507 = v507
			s510 = v510
			s513 = v513
			s516 = v516
			s519 = v519
			s522 = v522
			s525 = v525
			s528 = v528
			s531 = v531
			s534 = v534
			s537 = v537
			s540 = v540
			s543 = v543
			s546 = v546
			s549 = v549
			s552 = v552
			s84 = 0x0
			s94 = 0x0
		default:
			var v4 uint64
			if v2 == 0x0 {
				v4 = 1
			}
			var v11 uint64
			if v4 != 0 {
				v11 = 0x3
			} else {
				v11 = v10
			}
			var v17 uint64
			if v2 == 0x1 {
				v17 = 1
			}
			v19 := v17 & v18
			var v26 uint64
			if v19 != 0 {
				v26 = 0x27
			} else {
				v26 = v25
			}
			v77 := v17 & v76
			var v79 uint64
			if v2 == 0x2 {
				v79 = 1
			}
			var v80 uint64
			if v79 != 0 {
				v80 = v75
			} else {
				v80 = v32
			}
			var v81 uint64
			if v77 != 0 {
				v81 = v16
			} else {
				v81 = v80
			}
			var v82 uint64
			if v17 != 0 {
				v82 = v13
			} else {
				v82 = v28
			}
			var v83 uint64
			if v17 != 0 {
				v83 = v16
			} else {
				v83 = v75
			}
			v84 := (v17 | v79)
			v92 := v79 & v91
			var v94 uint64
			if v2 == 0x5 {
				v94 = 1
			}
			v95 := v94 & v90
			v96 := (v92 | v95)
			var v104 uint64
			if v96 != 0 {
				v104 = 0x17
			} else {
				v104 = v103
			}
			var v116 uint64
			if v2 == 0x3 {
				v116 = 1
			}
			v118 := v116 & v117
			var v126 uint64
			if v118 != 0 {
				v126 = 0x9
			} else {
				v126 = v125
			}
			v246 := v116 & v245
			var v248 uint64
			if v2 == 0x4 {
				v248 = 1
			}
			var v249 uint64
			if v248 != 0 {
				v249 = v244
			} else {
				v249 = v132
			}
			var v250 uint64
			if v246 != 0 {
				v250 = v115
			} else {
				v250 = v249
			}
			v314 := v116 & v313
			var v315 uint64
			if v248 != 0 {
				v315 = v312
			} else {
				v315 = v133
			}
			var v316 uint64
			if v314 != 0 {
				v316 = v115
			} else {
				v316 = v315
			}
			v382 := v116 & v381
			var v383 uint64
			if v248 != 0 {
				v383 = v379
			} else {
				v383 = v134
			}
			var v384 uint64
			if v382 != 0 {
				v384 = v115
			} else {
				v384 = v383
			}
			v450 := v116 & v449
			var v451 uint64
			if v248 != 0 {
				v451 = v447
			} else {
				v451 = v135
			}
			var v452 uint64
			if v450 != 0 {
				v452 = v115
			} else {
				v452 = v451
			}
			var v457 uint64
			if v95 != 0 {
				v457 = v456
			} else {
				v457 = v86
			}
			var v458 uint64
			if v4 != 0 {
				v458 = v87
			} else {
				v458 = v457
			}
			var v462 uint64
			if v94 != 0 {
				v462 = v461
			} else {
				v462 = v2
			}
			var v463 uint64
			if v131 != 0 {
				v463 = 0x5
			} else {
				v463 = v2
			}
			var v464 uint64
			if v248 != 0 {
				v464 = v463
			} else {
				v464 = v462
			}
			var v465 uint64
			if v117 != 0 {
				v465 = 0x4
			} else {
				v465 = v2
			}
			var v466 uint64
			if v116 != 0 {
				v466 = v465
			} else {
				v466 = v464
			}
			var v467 uint64
			if v91 != 0 {
				v467 = 0x3
			} else {
				v467 = v2
			}
			var v468 uint64
			if v79 != 0 {
				v468 = v467
			} else {
				v468 = v466
			}
			var v469 uint64
			if v18 != 0 {
				v469 = 0x2
			} else {
				v469 = v2
			}
			var v470 uint64
			if v17 != 0 {
				v470 = v469
			} else {
				v470 = v468
			}
			var v471 uint64
			if v4 != 0 {
				v471 = 0x1
			} else {
				v471 = v470
			}
			var v472 uint64
			if v2 == 0x6 {
				v472 = 1
			}
			var v473 uint64
			if v471 == 0x1 {
				v473 = 1
			}
			v474 := v4 & v473
			var v478 uint64
			if v474 != 0 {
				v478 = v477
			} else {
				v478 = v476
			}
			var v479 uint64
			if v471 == 0x2 {
				v479 = 1
			}
			v480 := v17 & v479
			var v483 uint64
			if v480 != 0 {
				v483 = v482
			} else {
				v483 = v481
			}
			var v484 uint64
			if v471 == 0x3 {
				v484 = 1
			}
			v485 := v79 & v484
			var v488 uint64
			if v485 != 0 {
				v488 = v487
			} else {
				v488 = v486
			}
			var v489 uint64
			if v471 == 0x4 {
				v489 = 1
			}
			v490 := v116 & v489
			var v493 uint64
			if v490 != 0 {
				v493 = v492
			} else {
				v493 = v491
			}
			var v494 uint64
			if v471 == 0x5 {
				v494 = 1
			}
			v495 := v248 & v494
			var v498 uint64
			if v495 != 0 {
				v498 = v497
			} else {
				v498 = v496
			}
			var v499 uint64
			if v471 == 0x6 {
				v499 = 1
			}
			v500 := v94 & v499
			var v503 uint64
			if v500 != 0 {
				v503 = v502
			} else {
				v503 = v501
			}
			v504 := v94 & v484
			var v507 uint64
			if v504 != 0 {
				v507 = v506
			} else {
				v507 = v505
			}
			var v510 uint64
			if v4 != 0 {
				v510 = v509
			} else {
				v510 = v508
			}
			var v513 uint64
			if v4 != 0 {
				v513 = v512
			} else {
				v513 = v511
			}
			var v516 uint64
			if v4 != 0 {
				v516 = v515
			} else {
				v516 = v514
			}
			var v519 uint64
			if v19 != 0 {
				v519 = v518
			} else {
				v519 = v517
			}
			var v522 uint64
			if v19 != 0 {
				v522 = v521
			} else {
				v522 = v520
			}
			var v525 uint64
			if v19 != 0 {
				v525 = v524
			} else {
				v525 = v523
			}
			var v528 uint64
			if v4 != 0 {
				v528 = v527
			} else {
				v528 = v526
			}
			var v531 uint64
			if v4 != 0 {
				v531 = v530
			} else {
				v531 = v529
			}
			var v534 uint64
			if v4 != 0 {
				v534 = v533
			} else {
				v534 = v532
			}
			var v537 uint64
			if v96 != 0 {
				v537 = v536
			} else {
				v537 = v535
			}
			var v540 uint64
			if v96 != 0 {
				v540 = v539
			} else {
				v540 = v538
			}
			var v543 uint64
			if v96 != 0 {
				v543 = v542
			} else {
				v543 = v541
			}
			var v546 uint64
			if v118 != 0 {
				v546 = v545
			} else {
				v546 = v544
			}
			var v549 uint64
			if v118 != 0 {
				v549 = v548
			} else {
				v549 = v547
			}
			var v552 uint64
			if v118 != 0 {
				v552 = v551
			} else {
				v552 = v550
			}
			s472 = v472
			s471 = v471
			s11 = v11
			s26 = v26
			s81 = v81
			s458 = v458
			s104 = v104
			s126 = v126
			s250 = v250
			s316 = v316
			s384 = v384
			s452 = v452
			s478 = v478
			s483 = v483
			s488 = v488
			s493 = v493
			s498 = v498
			s503 = v503
			s507 = v507
			s510 = v510
			s513 = v513
			s516 = v516
			s519 = v519
			s522 = v522
			s525 = v525
			s528 = v528
			s531 = v531
			s534 = v534
			s537 = v537
			s540 = v540
			s543 = v543
			s546 = v546
			s549 = v549
			s552 = v552
			s84 = v84
			s82 = v82
			s83 = v83
			s94 = v94
		}
		if s472 != 0 {
			break
		}
		if s84 != 0 {
			if addr := uint64(s82); addr < uint64(len(m2)) {
				m2[addr] = s83
			}
		}
		if s94 != 0 {
			if addr := uint64(v252); addr < uint64(len(m1)) {
				m1[addr] = v132
			}
		}
		if s94 != 0 {
			if addr := uint64(v318); addr < uint64(len(m1)) {
				m1[addr] = v133
			}
		}
		if s94 != 0 {
			if addr := uint64(v387); addr < uint64(len(m1)) {
				m1[addr] = v134
			}
		}
		if s94 != 0 {
			if addr := uint64(v455); addr < uint64(len(m1)) {
				m1[addr] = v135
			}
		}
		v2 = s471
		v6 = s11
		v21 = s26
		v32 = s81
		v86 = s458
		v98 = s104
		v120 = s126
		v132 = s250
		v133 = s316
		v134 = s384
		v135 = s452
		v476 = s478
		v481 = s483
		v486 = s488
		v491 = s493
		v496 = s498
		v501 = s503
		v505 = s507
		v508 = s510
		v511 = s513
		v514 = s516
		v517 = s519
		v520 = s522
		v523 = s525
		v526 = s528
		v529 = s531
		v532 = s534
		v535 = s537
		v538 = s540
		v541 = s543
		v544 = s546
		v547 = s549
		v550 = s552
	}
	vals[2] = v2
	vals[6] = v6
	vals[21] = v21
	vals[32] = v32
	vals[86] = v86
	vals[98] = v98
	vals[120] = v120
	vals[132] = v132
	vals[133] = v133
	vals[134] = v134
	vals[135] = v135
	vals[476] = v476
	vals[481] = v481
	vals[486] = v486
	vals[491] = v491
	vals[496] = v496
	vals[501] = v501
	vals[505] = v505
	vals[508] = v508
	vals[511] = v511
	vals[514] = v514
	vals[517] = v517
	vals[520] = v520
	vals[523] = v523
	vals[526] = v526
	vals[529] = v529
	vals[532] = v532
	vals[535] = v535
	vals[538] = v538
	vals[541] = v541
	vals[544] = v544
	vals[547] = v547
	vals[550] = v550
	return n
}

func run_aes_pruned(vals []uint64, mems [][]uint64, max uint64) uint64 {
	_ = vals[548]
	m0 := mems[0]
	m1 := mems[1]
	m2 := mems[2]
	m3 := mems[3]
	m4 := mems[4]
	v0 := vals[0]
	v5 := vals[5]
	v10 := vals[10]
	v16 := vals[16]
	v22 := vals[22]
	v28 := vals[28]
	v50 := vals[50]
	v129 := vals[129]
	v149 := vals[149]
	v156 := vals[156]
	v163 := vals[163]
	v456 := vals[456]
	v462 := vals[462]
	v467 := vals[467]
	v472 := vals[472]
	v477 := vals[477]
	v482 := vals[482]
	v487 := vals[487]
	v491 := vals[491]
	v494 := vals[494]
	v497 := vals[497]
	v500 := vals[500]
	v503 := vals[503]
	v506 := vals[506]
	v509 := vals[509]
	v512 := vals[512]
	v515 := vals[515]
	v518 := vals[518]
	v521 := vals[521]
	v524 := vals[524]
	v527 := vals[527]
	v530 := vals[530]
	v533 := vals[533]
	var n uint64
	for ; n < max; n++ {
		var v6 uint64
		if v5 == 0x0 {
			v6 = 1
		}
		var v12 uint64
		if v10 == 0x0 {
			v12 = 1
		}
		var v18 uint64
		if v16 == 0x0 {
			v18 = 1
		}
		var v24 uint64
		if v22 == 0x0 {
			v24 = 1
		}
		var v30 uint64
		if v28 == 0x0 {
			v30 = 1
		}
		var v32 uint64
		if v30 != 0 {
			v32 = 0x6
		} else {
			v32 = 0x3
		}
		var v39 uint64
		if v5 != 0x0 {
			v39 = 1
		}
		v40 := (v5 - 0x1) & 0x7
		var v41 uint64
		if v39 != 0 {
			v41 = v40
		} else {
			v41 = v5
		}
		var v45 uint64
		if v10 != 0x0 {
			v45 = 1
		}
		v47 := (v10 - 0x1) & 0x3f
		var v48 uint64
		if v45 != 0 {
			v48 = v47
		} else {
			v48 = v10
		}
		v52 := (0x3 - v5) & 0x3f
		var v53 uint64
		if v52 == 0x3 {
			v53 = 1
		}
		v55 := (v52 + 0x1) & 0x3f
		var v56 uint64
		if addr := uint64(v55); addr < uint64(len(m0)) {
			v56 = m0[addr] & 0xffffffff
		}
		v58 := (0x2b - v10) & 0x3f
		v60 := (v58 - 0x4) & 0x3f
		var v61 uint64
		if addr := uint64(v60); addr < uint64(len(m1)) {
			v61 = m1[addr] & 0xffffffff
		}
		v62 := v58 & 0x3
		var v64 uint64
		if v62 == 0x0 {
			v64 = 1
		}
		v66 := (v50 << 8) & 0xffffffff
		v68 := (v50 >> 24)
		v69 := (v66 | v68)
		v70 := (v69 >> 24)
		v72 := v70 & 0xff
		var v73 uint64
		if addr := uint64(v72); addr < uint64(len(m2)) {
			v73 = m2[addr] & 0xff
		}
		v75 := (v73 | 0x0)
		v76 := (v75 << 24) & 0xffffffff
		v78 := (v69 >> 16)
		v79 := v78 & 0xff
		var v80 uint64
		if addr := uint64(v79); addr < uint64(len(m2)) {
			v80 = m2[addr] & 0xff
		}
		v81 := (v80 | 0x0)
		v82 := (v81 << 16) & 0xffffffff
		v83 := (v76 | v82)
		v84 := (v69 >> 8)
		v85 := v84 & 0xff
		var v86 uint64
		if addr := uint64(v85); addr < uint64(len(m2)) {
			v86 = m2[addr] & 0xff
		}
		v87 := (v86 | 0x0)
		v88 := (v87 << 8) & 0xffffffff
		v89 := (v83 | v88)
		v90 := v69 & 0xff
		var v91 uint64
		if addr := uint64(v90); addr < uint64(len(m2)) {
			v91 = m2[addr] & 0xff
		}
		v92 := (v91 | 0x0)
		v93 := (v89 | v92)
		v95 := (v58 >> 2)
		v96 := (v95 - 0x1) & 0x3f
		v98 := v96 & 0xf
		var v99 uint64
		if addr := uint64(v98); addr < uint64(len(m3)) {
			v99 = m3[addr] & 0xffffffff
		}
		v100 := (v93 ^ v99)
		var v101 uint64
		if v64 != 0 {
			v101 = v100
		} else {
			v101 = v50
		}
		v102 := (v61 ^ v101)
		var v106 uint64
		if addr := uint64(0x0); addr < uint64(len(m0)) {
			v106 = m0[addr] & 0xffff
		}
		v108 := (v106 - 0x1) & 0xffff
		var v109 uint64
		if v28 != 0x0 {
			v109 = 1
		}
		v111 := (v28 - 0x1) & 0xffff
		var v117 uint64
		if v16 != 0x0 {
			v117 = 1
		}
		v119 := (v16 - 0x1) & 0x1f
		var v120 uint64
		if v117 != 0 {
			v120 = v119
		} else {
			v120 = v16
		}
		var v124 uint64
		if v22 != 0x0 {
			v124 = 1
		}
		v126 := (v22 - 0x1) & 0xf
		var v127 uint64
		if v124 != 0 {
			v127 = v126
		} else {
			v127 = v22
		}
		v130 := (0x17 - v16) & 0x1f
		var v131 uint64
		if v130 == 0x0 {
			v131 = 1
		}
		v133 := (v108 - v28) & 0xffff
		v134 := (v133 << 2) & 0xffff
		v135 := (v130 | 0x0)
		v136 := (v134 + v135) & 0xffff
		v138 := (v136 + 0x5) & 0xffff
		v140 := v138 & 0x3ff
		var v141 uint64
		if addr := uint64(v140); addr < uint64(len(m0)) {
			v141 = m0[addr] & 0xffffffff
		}
		var v142 uint64
		if addr := uint64(v130); addr < uint64(len(m1)) {
			v142 = m1[addr] & 0xffffffff
		}
		v143 := (v141 ^ v142)
		v144 := (v129 >> 24)
		v145 := v144 & 0xff
		var v146 uint64
		if addr := uint64(v145); addr < uint64(len(m2)) {
			v146 = m2[addr] & 0xff
		}
		v147 := (v146 | 0x0)
		v148 := (v147 << 24) & 0xffffffff
		v150 := (v149 >> 16)
		v151 := v150 & 0xff
		var v152 uint64
		if addr := uint64(v151); addr < uint64(len(m2)) {
			v152 = m2[addr] & 0xff
		}
		v153 := (v152 | 0x0)
		v154 := (v153 << 16) & 0xffffffff
		v155 := (v148 | v154)
		v157 := (v156 >> 8)
		v158 := v157 & 0xff
		var v159 uint64
		if addr := uint64(v158); addr < uint64(len(m2)) {
			v159 = m2[addr] & 0xff
		}
		v160 := (v159 | 0x0)
		v161 := (v160 << 8) & 0xffffffff
		v162 := (v155 | v161)
		v164 := v163 & 0xff
		var v165 uint64
		if addr := uint64(v164); addr < uint64(len(m2)) {
			v165 = m2[addr] & 0xff
		}
		v166 := (v165 | 0x0)
		v167 := (v162 | v166)
		v169 := (v146 << 1) & 0xff
		v171 := (v146 >> 7)
		v173 := v171 & 0x1
		var v176 uint64
		if v173 != 0 {
			v176 = 0x1b
		} else {
			v176 = 0x0
		}
		v177 := (v169 ^ v176)
		v178 := (v152 << 1) & 0xff
		v179 := (v152 >> 7)
		v180 := v179 & 0x1
		var v181 uint64
		if v180 != 0 {
			v181 = 0x1b
		} else {
			v181 = 0x0
		}
		v182 := (v178 ^ v181)
		v183 := (v182 ^ v152)
		v184 := (v177 ^ v183)
		v185 := (v184 ^ v159)
		v186 := (v185 ^ v165)
		v187 := (v186 | 0x0)
		v188 := (v187 << 24) & 0xffffffff
		v189 := (v146 ^ v182)
		v190 := (v159 << 1) & 0xff
		v191 := (v159 >> 7)
		v192 := v191 & 0x1
		var v193 uint64
		if v192 != 0 {
			v193 = 0x1b
		} else {
			v193 = 0x0
		}
		v194 := (v190 ^ v193)
		v195 := (v194 ^ v159)
		v196 := (v189 ^ v195)
		v197 := (v196 ^ v165)
		v198 := (v197 | 0x0)
		v199 := (v198 << 16) & 0xffffffff
		v200 := (v188 | v199)
		v201 := (v146 ^ v152)
		v202 := (v201 ^ v194)
		v203 := (v165 << 1) & 0xff
		v204 := (v165 >> 7)
		v205 := v204 & 0x1
		var v206 uint64
		if v205 != 0 {
			v206 = 0x1b
		} else {
			v206 = 0x0
		}
		v207 := (v203 ^ v206)
		v208 := (v207 ^ v165)
		v209 := (v202 ^ v208)
		v210 := (v209 | 0x0)
		v211 := (v210 << 8) & 0xffffffff
		v212 := (v200 | v211)
		v213 := (v177 ^ v146)
		v214 := (v213 ^ v152)
		v215 := (v214 ^ v159)
		v216 := (v215 ^ v207)
		v217 := (v216 | 0x0)
		v218 := (v212 | v217)
		var v219 uint64
		if v24 != 0 {
			v219 = v167
		} else {
			v219 = v218
		}
		v221 := (v22 | 0x0)
		v222 := (v221 << 2) & 0x3f
		v223 := (0x28 - v222) & 0x3f
		var v224 uint64
		if addr := uint64(v223); addr < uint64(len(m1)) {
			v224 = m1[addr] & 0xffffffff
		}
		v225 := (v219 ^ v224)
		var v228 uint64
		if v130 == 0x1 {
			v228 = 1
		}
		v230 := (v149 >> 24)
		v231 := v230 & 0xff
		var v232 uint64
		if addr := uint64(v231); addr < uint64(len(m2)) {
			v232 = m2[addr] & 0xff
		}
		v233 := (v232 | 0x0)
		v234 := (v233 << 24) & 0xffffffff
		v235 := (v156 >> 16)
		v236 := v235 & 0xff
		var v237 uint64
		if addr := uint64(v236); addr < uint64(len(m2)) {
			v237 = m2[addr] & 0xff
		}
		v238 := (v237 | 0x0)
		v239 := (v238 << 16) & 0xffffffff
		v240 := (v234 | v239)
		v241 := (v163 >> 8)
		v242 := v241 & 0xff
		var v243 uint64
		if addr := uint64(v242); addr < uint64(len(m2)) {
			v243 = m2[addr] & 0xff
		}
		v244 := (v243 | 0x0)
		v245 := (v244 << 8) & 0xffffffff
		v246 := (v240 | v245)
		v247 := v129 & 0xff
		var v248 uint64
		if addr := uint64(v247); addr < uint64(len(m2)) {
			v248 = m2[addr] & 0xff
		}
		v249 := (v248 | 0x0)
		v250 := (v246 | v249)
		v251 := (v232 << 1) & 0xff
		v252 := (v232 >> 7)
		v253 := v252 & 0x1
		var v254 uint64
		if v253 != 0 {
			v254 = 0x1b
		} else {
			v254 = 0x0
		}
		v255 := (v251 ^ v254)
		v256 := (v237 << 1) & 0xff
		v257 := (v237 >> 7)
		v258 := v257 & 0x1
		var v259 uint64
		if v258 != 0 {
			v259 = 0x1b
		} else {
			v259 = 0x0
		}
		v260 := (v256 ^ v259)
		v261 := (v260 ^ v237)
		v262 := (v255 ^ v261)
		v263 := (v262 ^ v243)
		v264 := (v263 ^ v248)
		v265 := (v264 | 0x0)
		v266 := (v265 << 24) & 0xffffffff
		v267 := (v232 ^ v260)
		v268 := (v243 << 1) & 0xff
		v269 := (v243 >> 7)
		v270 := v269 & 0x1
		var v271 uint64
		if v270 != 0 {
			v271 = 0x1b
		} else {
			v271 = 0x0
		}
		v272 := (v268 ^ v271)
		v273 := (v272 ^ v243)
		v274 := (v267 ^ v273)
		v275 := (v274 ^ v248)
		v276 := (v275 | 0x0)
		v277 := (v276 << 16) & 0xffffffff
		v278 := (v266 | v277)
		v279 := (v232 ^ v237)
		v280 := (v279 ^ v272)
		v281 := (v248 << 1) & 0xff
		v282 := (v248 >> 7)
		v283 := v282 & 0x1
		var v284 uint64
		if v283 != 0 {
			v284 = 0x1b
		} else {
			v284 = 0x0
		}
		v285 := (v281 ^ v284)
		v286 := (v285 ^ v248)
		v287 := (v280 ^ v286)
		v288 := (v287 | 0x0)
		v289 := (v288 << 8) & 0xffffffff
		v290 := (v278 | v289)
		v291 := (v255 ^ v232)
		v292 := (v291 ^ v237)
		v293 := (v292 ^ v243)
		v294 := (v293 ^ v285)
		v295 := (v294 | 0x0)
		v296 := (v290 | v295)
		var v297 uint64
		if v24 != 0 {
			v297 = v250
		} else {
			v297 = v296
		}
		v298 := (v223 + 0x1) & 0x3f
		var v299 uint64
		if addr := uint64(v298); addr < uint64(len(m1)) {
			v299 = m1[addr] & 0xffffffff
		}
		v300 := (v297 ^ v299)
		var v304 uint64
		if v130 == 0x2 {
			v304 = 1
		}
		v306 := (v156 >> 24)
		v307 := v306 & 0xff
		var v308 uint64
		if addr := uint64(v307); addr < uint64(len(m2)) {
			v308 = m2[addr] & 0xff
		}
		v309 := (v308 | 0x0)
		v310 := (v309 << 24) & 0xffffffff
		v311 := (v163 >> 16)
		v312 := v311 & 0xff
		var v313 uint64
		if addr := uint64(v312); addr < uint64(len(m2)) {
			v313 = m2[addr] & 0xff
		}
		v314 := (v313 | 0x0)
		v315 := (v314 << 16) & 0xffffffff
		v316 := (v310 | v315)
		v317 := (v129 >> 8)
		v318 := v317 & 0xff
		var v319 uint64
		if addr := uint64(v318); addr < uint64(len(m2)) {
			v319 = m2[addr] & 0xff
		}
		v320 := (v319 | 0x0)
		v321 := (v320 << 8) & 0xffffffff
		v322 := (v316 | v321)
		v323 := v149 & 0xff
		var v324 uint64
		if addr := uint64(v323); addr < uint64(len(m2)) {
			v324 = m2[addr] & 0xff
		}
		v325 := (v324 | 0x0)
		v326 := (v322 | v325)
		v327 := (v308 << 1) & 0xff
		v328 := (v308 >> 7)
		v329 := v328 & 0x1
		var v330 uint64
		if v329 != 0 {
			v330 = 0x1b
		} else {
			v330 = 0x0
		}
		v331 := (v327 ^ v330)
		v332 := (v313 << 1) & 0xff
		v333 := (v313 >> 7)
		v334 := v333 & 0x1
		var v335 uint64
		if v334 != 0 {
			v335 = 0x1b
		} else {
			v335 = 0x0
		}
		v336 := (v332 ^ v335)
		v337 := (v336 ^ v313)
		v338 := (v331 ^ v337)
		v339 := (v338 ^ v319)
		v340 := (v339 ^ v324)
		v341 := (v340 | 0x0)
		v342 := (v341 << 24) & 0xffffffff
		v343 := (v308 ^ v336)
		v344 := (v319 << 1) & 0xff
		v345 := (v319 >> 7)
		v346 := v345 & 0x1
		var v347 uint64
		if v346 != 0 {
			v347 = 0x1b
		} else {
			v347 = 0x0
		}
		v348 := (v344 ^ v347)
		v349 := (v348 ^ v319)
		v350 := (v343 ^ v349)
		v351 := (v350 ^ v324)
		v352 := (v351 | 0x0)
		v353 := (v352 << 16) & 0xffffffff
		v354 := (v342 | v353)
		v355 := (v308 ^ v313)
		v356 := (v355 ^ v348)
		v357 := (v324 << 1) & 0xff
		v358 := (v324 >> 7)
		v359 := v358 & 0x1
		var v360 uint64
		if v359 != 0 {
			v360 = 0x1b
		} else {
			v360 = 0x0
		}
		v361 := (v357 ^ v360)
		v362 := (v361 ^ v324)
		v363 := (v356 ^ v362)
		v364 := (v363 | 0x0)
		v365 := (v364 << 8) & 0xffffffff
		v366 := (v354 | v365)
		v367 := (v331 ^ v308)
		v368 := (v367 ^ v313)
		v369 := (v368 ^ v319)
		v370 := (v369 ^ v361)
		v371 := (v370 | 0x0)
		v372 := (v366 | v371)
		var v373 uint64
		if v24 != 0 {
			v373 = v326
		} else {
			v373 = v372
		}
		v375 := (v223 + 0x2) & 0x3f
		var v376 uint64
		if addr := uint64(v375); addr < uint64(len(m1)) {
			v376 = m1[addr] & 0xffffffff
		}
		v377 := (v373 ^ v376)
		var v381 uint64
		if v130 == 0x3 {
			v381 = 1
		}
		v383 := (v163 >> 24)
		v384 := v383 & 0xff
		var v385 uint64
		if addr := uint64(v384); addr < uint64(len(m2)) {
			v385 = m2[addr] & 0xff
		}
		v386 := (v385 | 0x0)
		v387 := (v386 << 24) & 0xffffffff
		v388 := (v129 >> 16)
		v389 := v388 & 0xff
		var v390 uint64
		if addr := uint64(v389); addr < uint64(len(m2)) {
			v390 = m2[addr] & 0xff
		}
		v391 := (v390 | 0x0)
		v392 := (v391 << 16) & 0xffffffff
		v393 := (v387 | v392)
		v394 := (v149 >> 8)
		v395 := v394 & 0xff
		var v396 uint64
		if addr := uint64(v395); addr < uint64(len(m2)) {
			v396 = m2[addr] & 0xff
		}
		v397 := (v396 | 0x0)
		v398 := (v397 << 8) & 0xffffffff
		v399 := (v393 | v398)
		v400 := v156 & 0xff
		var v401 uint64
		if addr := uint64(v400); addr < uint64(len(m2)) {
			v401 = m2[addr] & 0xff
		}
		v402 := (v401 | 0x0)
		v403 := (v399 | v402)
		v404 := (v385 << 1) & 0xff
		v405 := (v385 >> 7)
		v406 := v405 & 0x1
		var v407 uint64
		if v406 != 0 {
			v407 = 0x1b
		} else {
			v407 = 0x0
		}
		v408 := (v404 ^ v407)
		v409 := (v390 << 1) & 0xff
		v410 := (v390 >> 7)
		v411 := v410 & 0x1
		var v412 uint64
		if v411 != 0 {
			v412 = 0x1b
		} else {
			v412 = 0x0
		}
		v413 := (v409 ^ v412)
		v414 := (v413 ^ v390)
		v415 := (v408 ^ v414)
		v416 := (v415 ^ v396)
		v417 := (v416 ^ v401)
		v418 := (v417 | 0x0)
		v419 := (v418 << 24) & 0xffffffff
		v420 := (v385 ^ v413)
		v421 := (v396 << 1) & 0xff
		v422 := (v396 >> 7)
		v423 := v422 & 0x1
		var v424 uint64
		if v423 != 0 {
			v424 = 0x1b
		} else {
			v424 = 0x0
		}
		v425 := (v421 ^ v424)
		v426 := (v425 ^ v396)
		v427 := (v420 ^ v426)
		v428 := (v427 ^ v401)
		v429 := (v428 | 0x0)
		v430 := (v429 << 16) & 0xffffffff
		v431 := (v419 | v430)
		v432 := (v385 ^ v390)
		v433 := (v432 ^ v425)
		v434 := (v401 << 1) & 0xff
		v435 := (v401 >> 7)
		v436 := v435 & 0x1
		var v437 uint64
		if v436 != 0 {
			v437 = 0x1b
		} else {
			v437 = 0x0
		}
		v438 := (v434 ^ v437)
		v439 := (v438 ^ v401)
		v440 := (v433 ^ v439)
		v441 := (v440 | 0x0)
		v442 := (v441 << 8) & 0xffffffff
		v443 := (v431 | v442)
		v444 := (v408 ^ v385)
		v445 := (v444 ^ v390)
		v446 := (v445 ^ v396)
		v447 := (v446 ^ v438)
		v448 := (v447 | 0x0)
		v449 := (v443 | v448)
		var v450 uint64
		if v24 != 0 {
			v450 = v403
		} else {
			v450 = v449
		}
		v451 := (v223 + 0x3) & 0x3f
		var v452 uint64
		if addr := uint64(v451); addr < uint64(len(m1)) {
			v452 = m1[addr] & 0xffffffff
		}
		v453 := (v450 ^ v452)
		v460 := (v456 + 0x1) & 0xffffff
		v465 := (v462 + 0x1) & 0xffffff
		v470 := (v467 + 0x1) & 0xffffff
		v475 := (v472 + 0x1) & 0xffffff
		v480 := (v477 + 0x1) & 0xffffff
		v485 := (v482 + 0x1) & 0xffffff
		v489 := (v487 + 0x1) & 0xffffff
		v492 := (v491 + 0x1) & 0xffffff
		v495 := (v494 + 0x3) & 0xffffff
		v498 := (v497 + v5) & 0xffffff
		v501 := (v500 + 0x1) & 0xffffff
		v504 := (v503 + 0x27) & 0xffffff
		v507 := (v506 + v10) & 0xffffff
		v510 := (v509 + 0x1) & 0xffffff
		v513 := (v512 + v108) & 0xffffff
		v516 := (v515 + v28) & 0xffffff
		v519 := (v518 + 0x1) & 0xffffff
		v522 := (v521 + 0x17) & 0xffffff
		v525 := (v524 + v16) & 0xffffff
		v528 := (v527 + 0x1) & 0xffffff
		v531 := (v530 + 0x9) & 0xffffff
		v534 := (v533 + v22) & 0xffffff
		v539 := v134 & 0x3ff
		v540 := (v134 + 0x1) & 0xffff
		v541 := v540 & 0x3ff
		v543 := (v134 + 0x2) & 0xffff
		v544 := v543 & 0x3ff
		v546 := (v134 + 0x3) & 0xffff
		v547 := v546 & 0x3ff
		var s27, s38, s42, s49, s104, s113, s121, s128, s227, s302, s379, s455, s461, s466, s471, s476, s481, s486, s490, s493, s496, s499, s502, s505, s508, s511, s514, s517, s520, s523, s526, s529, s532, s535, s536, s537, s538, s548 uint64
		switch v0 {
		case 0x0:
			v43 := 0x0 & v6
			var v49 uint64
			if v43 != 0 {
				v49 = 0x27
			} else {
				v49 = v48
			}
			v54 := 0x0 & v53
			v103 := v50
			var v104 uint64
			if v54 != 0 {
				v104 = v56
			} else {
				v104 = v103
			}
			v110 := 0x0 & v109
			v113 := v108
			v114 := 0x0 & v12
			v115 := (v114 | v110)
			var v121 uint64
			if v115 != 0 {
				v121 = 0x17
			} else {
				v121 = v120
			}
			v122 := 0x0 & v18
			var v128 uint64
			if v122 != 0 {
				v128 = 0x9
			} else {
				v128 = v127
			}
			v132 := 0x0 & v131
			v226 := v129
			var v227 uint64
			if v132 != 0 {
				v227 = v143
			} else {
				v227 = v226
			}
			v229 := 0x0 & v228
			v301 := v149
			var v302 uint64
			if v229 != 0 {
				v302 = v143
			} else {
				v302 = v301
			}
			v305 := 0x0 & v304
			v378 := v156
			var v379 uint64
			if v305 != 0 {
				v379 = v143
			} else {
				v379 = v378
			}
			v382 := 0x0 & v381
			v454 := v163
			var v455 uint64
			if v382 != 0 {
				v455 = v143
			} else {
				v455 = v454
			}
			v461 := v460
			v466 := v462
			v471 := v467
			v476 := v472
			v481 := v477
			v486 := v482
			v490 := v487
			v493 := v492
			v496 := v495
			v499 := v498
			var v502 uint64
			if v43 != 0 {
				v502 = v501
			} else {
				v502 = v500
			}
			var v505 uint64
			if v43 != 0 {
				v505 = v504
			} else {
				v505 = v503
			}
			var v508 uint64
			if v43 != 0 {
				v508 = v507
			} else {
				v508 = v506
			}
			v511 := v510
			v514 := v513
			v517 := v516
			var v520 uint64
			if v115 != 0 {
				v520 = v519
			} else {
				v520 = v518
			}
			var v523 uint64
			if v115 != 0 {
				v523 = v522
			} else {
				v523 = v521
			}
			var v526 uint64
			if v115 != 0 {
				v526 = v525
			} else {
				v526 = v524
			}
			var v529 uint64
			if v122 != 0 {
				v529 = v528
			} else {
				v529 = v527
			}
			var v532 uint64
			if v122 != 0 {
				v532 = v531
			} else {
				v532 = v530
			}
			var v535 uint64
			if v122 != 0 {
				v535 = v534
			} else {
				v535 = v533
			}
			s548 = 0x0
			s38 = 0x1
			s42 = 0x3
			s49 = v49
			s104 = v104
			s113 = v113
			s121 = v121
			s128 = v128
			s227 = v227
			s302 = v302
			s379 = v379
			s455 = v455
			s461 = v461
			s466 = v466
			s471 = v471
			s476 = v476
			s481 = v481
			s486 = v486
			s490 = v490
			s493 = v493
			s496 = v496
			s499 = v499
			s502 = v502
			s505 = v505
			s508 = v508
			s511 = v511
			s514 = v514
			s517 = v517
			s520 = v520
			s523 = v523
			s526 = v526
			s529 = v529
			s532 = v532
			s535 = v535
			s536 = 0x0
			s27 = 0x0
		case 0x1:
			var v8 uint64
			if v6 != 0 {
				v8 = 0x2
			} else {
				v8 = 0x1
			}
			v37 := v8
			v38 := v37
			v42 := v41
			v43 := 0x1 & v6
			var v49 uint64
			if v43 != 0 {
				v49 = 0x27
			} else {
				v49 = v48
			}
			v54 := 0x1 & v53
			v103 := v50
			var v104 uint64
			if v54 != 0 {
				v104 = v56
			} else {
				v104 = v103
			}
			v110 := 0x0 & v109
			var v112 uint64
			if v110 != 0 {
				v112 = v111
			} else {
				v112 = v28
			}
			v113 := v112
			v114 := 0x0 & v12
			v115 := (v114 | v110)
			var v121 uint64
			if v115 != 0 {
				v121 = 0x17
			} else {
				v121 = v120
			}
			v122 := 0x0 & v18
			var v128 uint64
			if v122 != 0 {
				v128 = 0x9
			} else {
				v128 = v127
			}
			v132 := 0x0 & v131
			v226 := v129
			var v227 uint64
			if v132 != 0 {
				v227 = v143
			} else {
				v227 = v226
			}
			v229 := 0x0 & v228
			v301 := v149
			var v302 uint64
			if v229 != 0 {
				v302 = v143
			} else {
				v302 = v301
			}
			v305 := 0x0 & v304
			v378 := v156
			var v379 uint64
			if v305 != 0 {
				v379 = v143
			} else {
				v379 = v378
			}
			v382 := 0x0 & v381
			v454 := v163
			var v455 uint64
			if v382 != 0 {
				v455 = v143
			} else {
				v455 = v454
			}
			var v457 uint64
			if v38 == 0x1 {
				v457 = 1
			}
			v458 := 0x0 & v457
			var v461 uint64
			if v458 != 0 {
				v461 = v460
			} else {
				v461 = v456
			}
			var v463 uint64
			if v38 == 0x2 {
				v463 = 1
			}
			v464 := 0x1 & v463
			var v466 uint64
			if v464 != 0 {
				v466 = v465
			} else {
				v466 = v462
			}
			var v468 uint64
			if v38 == 0x3 {
				v468 = 1
			}
			v469 := 0x0 & v468
			var v471 uint64
			if v469 != 0 {
				v471 = v470
			} else {
				v471 = v467
			}
			var v473 uint64
			if v38 == 0x4 {
				v473 = 1
			}
			v474 := 0x0 & v473
			var v476 uint64
			if v474 != 0 {
				v476 = v475
			} else {
				v476 = v472
			}
			var v478 uint64
			if v38 == 0x5 {
				v478 = 1
			}
			v479 := 0x0 & v478
			var v481 uint64
			if v479 != 0 {
				v481 = v480
			} else {
				v481 = v477
			}
			var v483 uint64
			if v38 == 0x6 {
				v483 = 1
			}
			v484 := 0x0 & v483
			var v486 uint64
			if v484 != 0 {
				v486 = v485
			} else {
				v486 = v482
			}
			v488 := 0x0 & v468
			var v490 uint64
			if v488 != 0 {
				v490 = v489
			} else {
				v490 = v487
			}
			v493 := v491
			v496 := v494
			v499 := v497
			var v502 uint64
			if v43 != 0 {
				v502 = v501
			} else {
				v502 = v500
			}
			var v505 uint64
			if v43 != 0 {
				v505 = v504
			} else {
				v505 = v503
			}
			var v508 uint64
			if v43 != 0 {
				v508 = v507
			} else {
				v508 = v506
			}
			v511 := v509
			v514 := v512
			v517 := v515
			var v520 uint64
			if v115 != 0 {
				v520 = v519
			} else {
				v520 = v518
			}
			var v523 uint64
			if v115 != 0 {
				v523 = v522
			} else {
				v523 = v521
			}
			var v526 uint64
			if v115 != 0 {
				v526 = v525
			} else {
				v526 = v524
			}
			var v529 uint64
			if v122 != 0 {
				v529 = v528
			} else {
				v529 = v527
			}
			var v532 uint64
			if v122 != 0 {
				v532 = v531
			} else {
				v532 = v530
			}
			var v535 uint64
			if v122 != 0 {
				v535 = v534
			} else {
				v535 = v533
			}
			v537 := v52
			v538 := v56
			s548 = 0x0
			s38 = v38
			s42 = v42
			s49 = v49
			s104 = v104
			s113 = v113
			s121 = v121
			s128 = v128
			s227 = v227
			s302 = v302
			s379 = v379
			s455 = v455
			s461 = v461
			s466 = v466
			s471 = v471
			s476 = v476
			s481 = v481
			s486 = v486
			s490 = v490
			s493 = v493
			s496 = v496
			s499 = v499
			s502 = v502
			s505 = v505
			s508 = v508
			s511 = v511
			s514 = v514
			s517 = v517
			s520 = v520
			s523 = v523
			s526 = v526
			s529 = v529
			s532 = v532
			s535 = v535
			s536 = 0x1
			s537 = v537
			s538 = v538
			s27 = 0x0
		case 0x2:
			var v14 uint64
			if v12 != 0 {
				v14 = 0x3
			} else {
				v14 = 0x2
			}
			v36 := v14
			v37 := v36
			v38 := v37
			v42 := v41
			v43 := 0x0 & v6
			var v49 uint64
			if v43 != 0 {
				v49 = 0x27
			} else {
				v49 = v48
			}
			v54 := 0x0 & v53
			v103 := v102
			var v104 uint64
			if v54 != 0 {
				v104 = v56
			} else {
				v104 = v103
			}
			v110 := 0x0 & v109
			var v112 uint64
			if v110 != 0 {
				v112 = v111
			} else {
				v112 = v28
			}
			v113 := v112
			v114 := 0x1 & v12
			v115 := (v114 | v110)
			var v121 uint64
			if v115 != 0 {
				v121 = 0x17
			} else {
				v121 = v120
			}
			v122 := 0x0 & v18
			var v128 uint64
			if v122 != 0 {
				v128 = 0x9
			} else {
				v128 = v127
			}
			v132 := 0x0 & v131
			v226 := v129
			var v227 uint64
			if v132 != 0 {
				v227 = v143
			} else {
				v227 = v226
			}
			v229 := 0x0 & v228
			v301 := v149
			var v302 uint64
			if v229 != 0 {
				v302 = v143
			} else {
				v302 = v301
			}
			v305 := 0x0 & v304
			v378 := v156
			var v379 uint64
			if v305 != 0 {
				v379 = v143
			} else {
				v379 = v378
			}
			v382 := 0x0 & v381
			v454 := v163
			var v455 uint64
			if v382 != 0 {
				v455 = v143
			} else {
				v455 = v454
			}
			var v457 uint64
			if v38 == 0x1 {
				v457 = 1
			}
			v458 := 0x0 & v457
			var v461 uint64
			if v458 != 0 {
				v461 = v460
			} else {
				v461 = v456
			}
			var v463 uint64
			if v38 == 0x2 {
				v463 = 1
			}
			v464 := 0x0 & v463
			var v466 uint64
			if v464 != 0 {
				v466 = v465
			} else {
				v466 = v462
			}
			var v468 uint64
			if v38 == 0x3 {
				v468 = 1
			}
			v469 := 0x1 & v468
			var v471 uint64
			if v469 != 0 {
				v471 = v470
			} else {
				v471 = v467
			}
			var v473 uint64
			if v38 == 0x4 {
				v473 = 1
			}
			v474 := 0x0 & v473
			var v476 uint64
			if v474 != 0 {
				v476 = v475
			} else {
				v476 = v472
			}
			var v478 uint64
			if v38 == 0x5 {
				v478 = 1
			}
			v479 := 0x0 & v478
			var v481 uint64
			if v479 != 0 {
				v481 = v480
			} else {
				v481 = v477
			}
			var v483 uint64
			if v38 == 0x6 {
				v483 = 1
			}
			v484 := 0x0 & v483
			var v486 uint64
			if v484 != 0 {
				v486 = v485
			} else {
				v486 = v482
			}
			v488 := 0x0 & v468
			var v490 uint64
			if v488 != 0 {
				v490 = v489
			} else {
				v490 = v487
			}
			v493 := v491
			v496 := v494
			v499 := v497
			var v502 uint64
			if v43 != 0 {
				v502 = v501
			} else {
				v502 = v500
			}
			var v505 uint64
			if v43 != 0 {
				v505 = v504
			} else {
				v505 = v503
			}
			var v508 uint64
			if v43 != 0 {
				v508 = v507
			} else {
				v508 = v506
			}
			v511 := v509
			v514 := v512
			v517 := v515
			var v520 uint64
			if v115 != 0 {
				v520 = v519
			} else {
				v520 = v518
			}
			var v523 uint64
			if v115 != 0 {
				v523 = v522
			} else {
				v523 = v521
			}
			var v526 uint64
			if v115 != 0 {
				v526 = v525
			} else {
				v526 = v524
			}
			var v529 uint64
			if v122 != 0 {
				v529 = v528
			} else {
				v529 = v527
			}
			var v532 uint64
			if v122 != 0 {
				v532 = v531
			} else {
				v532 = v530
			}
			var v535 uint64
			if v122 != 0 {
				v535 = v534
			} else {
				v535 = v533
			}
			v537 := v58
			v538 := v102
			s548 = 0x0
			s38 = v38
			s42 = v42
			s49 = v49
			s104 = v104
			s113 = v113
			s121 = v121
			s128 = v128
			s227 = v227
			s302 = v302
			s379 = v379
			s455 = v455
			s461 = v461
			s466 = v466
			s471 = v471
			s476 = v476
			s481 = v481
			s486 = v486
			s490 = v490
			s493 = v493
			s496 = v496
			s499 = v499
			s502 = v502
			s505 = v505
			s508 = v508
			s511 = v511
			s514 = v514
			s517 = v517
			s520 = v520
			s523 = v523
			s526 = v526
			s529 = v529
			s532 = v532
			s535 = v535
			s536 = 0x1
			s537 = v537
			s538 = v538
			s27 = 0x0
		case 0x3:
			var v20 uint64
			if v18 != 0 {
				v20 = 0x4
			} else {
				v20 = 0x3
			}
			v35 := v20
			v36 := v35
			v37 := v36
			v38 := v37
			v42 := v41
			v43 := 0x0 & v6
			var v49 uint64
			if v43 != 0 {
				v49 = 0x27
			} else {
				v49 = v48
			}
			v54 := 0x0 & v53
			v103 := v50
			var v104 uint64
			if v54 != 0 {
				v104 = v56
			} else {
				v104 = v103
			}
			v110 := 0x0 & v109
			var v112 uint64
			if v110 != 0 {
				v112 = v111
			} else {
				v112 = v28
			}
			v113 := v112
			v114 := 0x0 & v12
			v115 := (v114 | v110)
			var v121 uint64
			if v115 != 0 {
				v121 = 0x17
			} else {
				v121 = v120
			}
			v122 := 0x1 & v18
			var v128 uint64
			if v122 != 0 {
				v128 = 0x9
			} else {
				v128 = v127
			}
			v132 := 0x1 & v131
			v226 := v129
			var v227 uint64
			if v132 != 0 {
				v227 = v143
			} else {
				v227 = v226
			}
			v229 := 0x1 & v228
			v301 := v149
			var v302 uint64
			if v229 != 0 {
				v302 = v143
			} else {
				v302 = v301
			}
			v305 := 0x1 & v304
			v378 := v156
			var v379 uint64
			if v305 != 0 {
				v379 = v143
			} else {
				v379 = v378
			}
			v382 := 0x1 & v381
			v454 := v163
			var v455 uint64
			if v382 != 0 {
				v455 = v143
			} else {
				v455 = v454
			}
			var v457 uint64
			if v38 == 0x1 {
				v457 = 1
			}
			v458 := 0x0 & v457
			var v461 uint64
			if v458 != 0 {
				v461 = v460
			} else {
				v461 = v456
			}
			var v463 uint64
			if v38 == 0x2 {
				v463 = 1
			}
			v464 := 0x0 & v463
			var v466 uint64
			if v464 != 0 {
				v466 = v465
			} else {
				v466 = v462
			}
			var v468 uint64
			if v38 == 0x3 {
				v468 = 1
			}
			v469 := 0x0 & v468
			var v471 uint64
			if v469 != 0 {
				v471 = v470
			} else {
				v471 = v467
			}
			var v473 uint64
			if v38 == 0x4 {
				v473 = 1
			}
			v474 := 0x1 & v473
			var v476 uint64
			if v474 != 0 {
				v476 = v475
			} else {
				v476 = v472
			}
			var v478 uint64
			if v38 == 0x5 {
				v478 = 1
			}
			v479 := 0x0 & v478
			var v481 uint64
			if v479 != 0 {
				v481 = v480
			} else {
				v481 = v477
			}
			var v483 uint64
			if v38 == 0x6 {
				v483 = 1
			}
			v484 := 0x0 & v483
			var v486 uint64
			if v484 != 0 {
				v486 = v485
			} else {
				v486 = v482
			}
			v488 := 0x0 & v468
			var v490 uint64
			if v488 != 0 {
				v490 = v489
			} else {
				v490 = v487
			}
			v493 := v491
			v496 := v494
			v499 := v497
			var v502 uint64
			if v43 != 0 {
				v502 = v501
			} else {
				v502 = v500
			}
			var v505 uint64
			if v43 != 0 {
				v505 = v504
			} else {
				v505 = v503
			}
			var v508 uint64
			if v43 != 0 {
				v508 = v507
			} else {
				v508 = v506
			}
			v511 := v509
			v514 := v512
			v517 := v515
			var v520 uint64
			if v115 != 0 {
				v520 = v519
			} else {
				v520 = v518
			}
			var v523 uint64
			if v115 != 0 {
				v523 = v522
			} else {
				v523 = v521
			}
			var v526 uint64
			if v115 != 0 {
				v526 = v525
			} else {
				v526 = v524
			}
			var v529 uint64
			if v122 != 0 {
				v529 = v528
			} else {
				v529 = v527
			}
			var v532 uint64
			if v122 != 0 {
				v532 = v531
			} else {
				v532 = v530
			}
			var v535 uint64
			if v122 != 0 {
				v535 = v534
			} else {
				v535 = v533
			}
			s548 = 0x0
			s38 = v38
			s42 = v42
			s49 = v49
			s104 = v104
			s113 = v113
			s121 = v121
			s128 = v128
			s227 = v227
			s302 = v302
			s379 = v379
			s455 = v455
			s461 = v461
			s466 = v466
			s471 = v471
			s476 = v476
			s481 = v481
			s486 = v486
			s490 = v490
			s493 = v493
			s496 = v496
			s499 = v499
			s502 = v502
			s505 = v505
			s508 = v508
			s511 = v511
			s514 = v514
			s517 = v517
			s520 = v520
			s523 = v523
			s526 = v526
			s529 = v529
			s532 = v532
			s535 = v535
			s536 = 0x0
			s27 = 0x0
		case 0x4:
			var v26 uint64
			if v24 != 0 {
				v26 = 0x5
			} else {
				v26 = 0x4
			}
			v34 := v26
			v35 := v34
			v36 := v35
			v37 := v36
			v38 := v37
			v42 := v41
			v43 := 0x0 & v6
			var v49 uint64
			if v43 != 0 {
				v49 = 0x27
			} else {
				v49 = v48
			}
			v54 := 0x0 & v53
			v103 := v50
			var v104 uint64
			if v54 != 0 {
				v104 = v56
			} else {
				v104 = v103
			}
			v110 := 0x0 & v109
			var v112 uint64
			if v110 != 0 {
				v112 = v111
			} else {
				v112 = v28
			}
			v113 := v112
			v114 := 0x0 & v12
			v115 := (v114 | v110)
			var v121 uint64
			if v115 != 0 {
				v121 = 0x17
			} else {
				v121 = v120
			}
			v122 := 0x0 & v18
			var v128 uint64
			if v122 != 0 {
				v128 = 0x9
			} else {
				v128 = v127
			}
			v132 := 0x0 & v131
			v226 := v225
			var v227 uint64
			if v132 != 0 {
				v227 = v143
			} else {
				v227 = v226
			}
			v229 := 0x0 & v228
			v301 := v300
			var v302 uint64
			if v229 != 0 {
				v302 = v143
			} else {
				v302 = v301
			}
			v305 := 0x0 & v304
			v378 := v377
			var v379 uint64
			if v305 != 0 {
				v379 = v143
			} else {
				v379 = v378
			}
			v382 := 0x0 & v381
			v454 := v453
			var v455 uint64
			if v382 != 0 {
				v455 = v143
			} else {
				v455 = v454
			}
			var v457 uint64
			if v38 == 0x1 {
				v457 = 1
			}
			v458 := 0x0 & v457
			var v461 uint64
			if v458 != 0 {
				v461 = v460
			} else {
				v461 = v456
			}
			var v463 uint64
			if v38 == 0x2 {
				v463 = 1
			}
			v464 := 0x0 & v463
			var v466 uint64
			if v464 != 0 {
				v466 = v465
			} else {
				v466 = v462
			}
			var v468 uint64
			if v38 == 0x3 {
				v468 = 1
			}
			v469 := 0x0 & v468
			var v471 uint64
			if v469 != 0 {
				v471 = v470
			} else {
				v471 = v467
			}
			var v473 uint64
			if v38 == 0x4 {
				v473 = 1
			}
			v474 := 0x0 & v473
			var v476 uint64
			if v474 != 0 {
				v476 = v475
			} else {
				v476 = v472
			}
			var v478 uint64
			if v38 == 0x5 {
				v478 = 1
			}
			v479 := 0x1 & v478
			var v481 uint64
			if v479 != 0 {
				v481 = v480
			} else {
				v481 = v477
			}
			var v483 uint64
			if v38 == 0x6 {
				v483 = 1
			}
			v484 := 0x0 & v483
			var v486 uint64
			if v484 != 0 {
				v486 = v485
			} else {
				v486 = v482
			}
			v488 := 0x0 & v468
			var v490 uint64
			if v488 != 0 {
				v490 = v489
			} else {
				v490 = v487
			}
			v493 := v491
			v496 := v494
			v499 := v497
			var v502 uint64
			if v43 != 0 {
				v502 = v501
			} else {
				v502 = v500
			}
			var v505 uint64
			if v43 != 0 {
				v505 = v504
			} else {
				v505 = v503
			}
			var v508 uint64
			if v43 != 0 {
				v508 = v507
			} else {
				v508 = v506
			}
			v511 := v509
			v514 := v512
			v517 := v515
			var v520 uint64
			if v115 != 0 {
				v520 = v519
			} else {
				v520 = v518
			}
			var v523 uint64
			if v115 != 0 {
				v523 = v522
			} else {
				v523 = v521
			}
			var v526 uint64
			if v115 != 0 {
				v526 = v525
			} else {
				v526 = v524
			}
			var v529 uint64
			if v122 != 0 {
				v529 = v528
			} else {
				v529 = v527
			}
			var v532 uint64
			if v122 != 0 {
				v532 = v531
			} else {
				v532 = v530
			}
			var v535 uint64
			if v122 != 0 {
				v535 = v534
			} else {
				v535 = v533
			}
			s548 = 0x0
			s38 = v38
			s42 = v42
			s49 = v49
			s104 = v104
			s113 = v113
			s121 = v121
			s128 = v128
			s227 = v227
			s302 = v302
			s379 = v379
			s455 = v455
			s461 = v461
			s466 = v466
			s471 = v471
			s476 = v476
			s481 = v481
			s486 = v486
			s490 = v490
			s493 = v493
			s496 = v496
			s499 = v499
			s502 = v502
			s505 = v505
			s508 = v508
			s511 = v511
			s514 = v514
			s517 = v517
			s520 = v520
			s523 = v523
			s526 = v526
			s529 = v529
			s532 = v532
			s535 = v535
			s536 = 0x0
			s27 = 0x0
		case 0x5:
			v33 := v32
			v34 := v33
			v35 := v34
			v36 := v35
			v37 := v36
			v38 := v37
			v42 := v41
			v43 := 0x0 & v6
			var v49 uint64
			if v43 != 0 {
				v49 = 0x27
			} else {
				v49 = v48
			}
			v54 := 0x0 & v53
			v103 := v50
			var v104 uint64
			if v54 != 0 {
				v104 = v56
			} else {
				v104 = v103
			}
			v110 := 0x1 & v109
			var v112 uint64
			if v110 != 0 {
				v112 = v111
			} else {
				v112 = v28
			}
			v113 := v112
			v114 := 0x0 & v12
			v115 := (v114 | v110)
			var v121 uint64
			if v115 != 0 {
				v121 = 0x17
			} else {
				v121 = v120
			}
			v122 := 0x0 & v18
			var v128 uint64
			if v122 != 0 {
				v128 = 0x9
			} else {
				v128 = v127
			}
			v132 := 0x0 & v131
			v226 := v129
			var v227 uint64
			if v132 != 0 {
				v227 = v143
			} else {
				v227 = v226
			}
			v229 := 0x0 & v228
			v301 := v149
			var v302 uint64
			if v229 != 0 {
				v302 = v143
			} else {
				v302 = v301
			}
			v305 := 0x0 & v304
			v378 := v156
			var v379 uint64
			if v305 != 0 {
				v379 = v143
			} else {
				v379 = v378
			}
			v382 := 0x0 & v381
			v454 := v163
			var v455 uint64
			if v382 != 0 {
				v455 = v143
			} else {
				v455 = v454
			}
			var v457 uint64
			if v38 == 0x1 {
				v457 = 1
			}
			v458 := 0x0 & v457
			var v461 uint64
			if v458 != 0 {
				v461 = v460
			} else {
				v461 = v456
			}
			var v463 uint64
			if v38 == 0x2 {
				v463 = 1
			}
			v464 := 0x0 & v463
			var v466 uint64
			if v464 != 0 {
				v466 = v465
			} else {
				v466 = v462
			}
			var v468 uint64
			if v38 == 0x3 {
				v468 = 1
			}
			v469 := 0x0 & v468
			var v471 uint64
			if v469 != 0 {
				v471 = v470
			} else {
				v471 = v467
			}
			var v473 uint64
			if v38 == 0x4 {
				v473 = 1
			}
			v474 := 0x0 & v473
			var v476 uint64
			if v474 != 0 {
				v476 = v475
			} else {
				v476 = v472
			}
			var v478 uint64
			if v38 == 0x5 {
				v478 = 1
			}
			v479 := 0x0 & v478
			var v481 uint64
			if v479 != 0 {
				v481 = v480
			} else {
				v481 = v477
			}
			var v483 uint64
			if v38 == 0x6 {
				v483 = 1
			}
			v484 := 0x1 & v483
			var v486 uint64
			if v484 != 0 {
				v486 = v485
			} else {
				v486 = v482
			}
			v488 := 0x1 & v468
			var v490 uint64
			if v488 != 0 {
				v490 = v489
			} else {
				v490 = v487
			}
			v493 := v491
			v496 := v494
			v499 := v497
			var v502 uint64
			if v43 != 0 {
				v502 = v501
			} else {
				v502 = v500
			}
			var v505 uint64
			if v43 != 0 {
				v505 = v504
			} else {
				v505 = v503
			}
			var v508 uint64
			if v43 != 0 {
				v508 = v507
			} else {
				v508 = v506
			}
			v511 := v509
			v514 := v512
			v517 := v515
			var v520 uint64
			if v115 != 0 {
				v520 = v519
			} else {
				v520 = v518
			}
			var v523 uint64
			if v115 != 0 {
				v523 = v522
			} else {
				v523 = v521
			}
			var v526 uint64
			if v115 != 0 {
				v526 = v525
			} else {
				v526 = v524
			}
			var v529 uint64
			if v122 != 0 {
				v529 = v528
			} else {
				v529 = v527
			}
			var v532 uint64
			if v122 != 0 {
				v532 = v531
			} else {
				v532 = v530
			}
			var v535 uint64
			if v122 != 0 {
				v535 = v534
			} else {
				v535 = v533
			}
			s548 = 0x0
			s38 = v38
			s42 = v42
			s49 = v49
			s104 = v104
			s113 = v113
			s121 = v121
			s128 = v128
			s227 = v227
			s302 = v302
			s379 = v379
			s455 = v455
			s461 = v461
			s466 = v466
			s471 = v471
			s476 = v476
			s481 = v481
			s486 = v486
			s490 = v490
			s493 = v493
			s496 = v496
			s499 = v499
			s502 = v502
			s505 = v505
			s508 = v508
			s511 = v511
			s514 = v514
			s517 = v517
			s520 = v520
			s523 = v523
			s526 = v526
			s529 = v529
			s532 = v532
			s535 = v535
			s536 = 0x0
			s27 = 0x1
		case 0x6:
			v42 := v41
			v43 := 0x0 & v6
			var v49 uint64
			if v43 != 0 {
				v49 = 0x27
			} else {
				v49 = v48
			}
			v54 := 0x0 & v53
			v103 := v50
			var v104 uint64
			if v54 != 0 {
				v104 = v56
			} else {
				v104 = v103
			}
			v110 := 0x0 & v109
			var v112 uint64
			if v110 != 0 {
				v112 = v111
			} else {
				v112 = v28
			}
			v113 := v112
			v114 := 0x0 & v12
			v115 := (v114 | v110)
			var v121 uint64
			if v115 != 0 {
				v121 = 0x17
			} else {
				v121 = v120
			}
			v122 := 0x0 & v18
			var v128 uint64
			if v122 != 0 {
				v128 = 0x9
			} else {
				v128 = v127
			}
			v132 := 0x0 & v131
			v226 := v129
			var v227 uint64
			if v132 != 0 {
				v227 = v143
			} else {
				v227 = v226
			}
			v229 := 0x0 & v228
			v301 := v149
			var v302 uint64
			if v229 != 0 {
				v302 = v143
			} else {
				v302 = v301
			}
			v305 := 0x0 & v304
			v378 := v156
			var v379 uint64
			if v305 != 0 {
				v379 = v143
			} else {
				v379 = v378
			}
			v382 := 0x0 & v381
			v454 := v163
			var v455 uint64
			if v382 != 0 {
				v455 = v143
			} else {
				v455 = v454
			}
			v461 := v456
			v466 := v462
			v471 := v467
			v476 := v472
			v481 := v477
			v486 := v482
			v490 := v487
			v493 := v491
			v496 := v494
			v499 := v497
			var v502 uint64
			if v43 != 0 {
				v502 = v501
			} else {
				v502 = v500
			}
			var v505 uint64
			if v43 != 0 {
				v505 = v504
			} else {
				v505 = v503
			}
			var v508 uint64
			if v43 != 0 {
				v508 = v507
			} else {
				v508 = v506
			}
			v511 := v509
			v514 := v512
			v517 := v515
			var v520 uint64
			if v115 != 0 {
				v520 = v519
			} else {
				v520 = v518
			}
			var v523 uint64
			if v115 != 0 {
				v523 = v522
			} else {
				v523 = v521
			}
			var v526 uint64
			if v115 != 0 {
				v526 = v525
			} else {
				v526 = v524
			}
			var v529 uint64
			if v122 != 0 {
				v529 = v528
			} else {
				v529 = v527
			}
			var v532 uint64
			if v122 != 0 {
				v532 = v531
			} else {
				v532 = v530
			}
			var v535 uint64
			if v122 != 0 {
				v535 = v534
			} else {
				v535 = v533
			}
			s548 = 0x1
			s38 = 0x6
			s42 = v42
			s49 = v49
			s104 = v104
			s113 = v113
			s121 = v121
			s128 = v128
			s227 = v227
			s302 = v302
			s379 = v379
			s455 = v455
			s461 = v461
			s466 = v466
			s471 = v471
			s476 = v476
			s481 = v481
			s486 = v486
			s490 = v490
			s493 = v493
			s496 = v496
			s499 = v499
			s502 = v502
			s505 = v505
			s508 = v508
			s511 = v511
			s514 = v514
			s517 = v517
			s520 = v520
			s523 = v523
			s526 = v526
			s529 = v529
			s532 = v532
			s535 = v535
			s536 = 0x0
			s27 = 0x0
		default:
			var v2 uint64
			if v0 == 0x0 {
				v2 = 1
			}
			var v4 uint64
			if v0 == 0x1 {
				v4 = 1
			}
			var v8 uint64
			if v6 != 0 {
				v8 = 0x2
			} else {
				v8 = v0
			}
			var v9 uint64
			if v0 == 0x2 {
				v9 = 1
			}
			var v14 uint64
			if v12 != 0 {
				v14 = 0x3
			} else {
				v14 = v0
			}
			var v15 uint64
			if v0 == 0x3 {
				v15 = 1
			}
			var v20 uint64
			if v18 != 0 {
				v20 = 0x4
			} else {
				v20 = v0
			}
			var v21 uint64
			if v0 == 0x4 {
				v21 = 1
			}
			var v26 uint64
			if v24 != 0 {
				v26 = 0x5
			} else {
				v26 = v0
			}
			var v27 uint64
			if v0 == 0x5 {
				v27 = 1
			}
			var v33 uint64
			if v27 != 0 {
				v33 = v32
			} else {
				v33 = v0
			}
			var v34 uint64
			if v21 != 0 {
				v34 = v26
			} else {
				v34 = v33
			}
			var v35 uint64
			if v15 != 0 {
				v35 = v20
			} else {
				v35 = v34
			}
			var v36 uint64
			if v9 != 0 {
				v36 = v14
			} else {
				v36 = v35
			}
			var v37 uint64
			if v4 != 0 {
				v37 = v8
			} else {
				v37 = v36
			}
			var v38 uint64
			if v2 != 0 {
				v38 = 0x1
			} else {
				v38 = v37
			}
			var v42 uint64
			if v2 != 0 {
				v42 = 0x3
			} else {
				v42 = v41
			}
			v43 := v4 & v6
			var v49 uint64
			if v43 != 0 {
				v49 = 0x27
			} else {
				v49 = v48
			}
			v54 := v4 & v53
			var v103 uint64
			if v9 != 0 {
				v103 = v102
			} else {
				v103 = v50
			}
			var v104 uint64
			if v54 != 0 {
				v104 = v56
			} else {
				v104 = v103
			}
			v110 := v27 & v109
			var v112 uint64
			if v110 != 0 {
				v112 = v111
			} else {
				v112 = v28
			}
			var v113 uint64
			if v2 != 0 {
				v113 = v108
			} else {
				v113 = v112
			}
			v114 := v9 & v12
			v115 := (v114 | v110)
			var v121 uint64
			if v115 != 0 {
				v121 = 0x17
			} else {
				v121 = v120
			}
			v122 := v15 & v18
			var v128 uint64
			if v122 != 0 {
				v128 = 0x9
			} else {
				v128 = v127
			}
			v132 := v15 & v131
			var v226 uint64
			if v21 != 0 {
				v226 = v225
			} else {
				v226 = v129
			}
			var v227 uint64
			if v132 != 0 {
				v227 = v143
			} else {
				v227 = v226
			}
			v229 := v15 & v228
			var v301 uint64
			if v21 != 0 {
				v301 = v300
			} else {
				v301 = v149
			}
			var v302 uint64
			if v229 != 0 {
				v302 = v143
			} else {
				v302 = v301
			}
			v305 := v15 & v304
			var v378 uint64
			if v21 != 0 {
				v378 = v377
			} else {
				v378 = v156
			}
			var v379 uint64
			if v305 != 0 {
				v379 = v143
			} else {
				v379 = v378
			}
			v382 := v15 & v381
			var v454 uint64
			if v21 != 0 {
				v454 = v453
			} else {
				v454 = v163
			}
			var v455 uint64
			if v382 != 0 {
				v455 = v143
			} else {
				v455 = v454
			}
			var v457 uint64
			if v38 == 0x1 {
				v457 = 1
			}
			v458 := v2 & v457
			var v461 uint64
			if v458 != 0 {
				v461 = v460
			} else {
				v461 = v456
			}
			var v463 uint64
			if v38 == 0x2 {
				v463 = 1
			}
			v464 := v4 & v463
			var v466 uint64
			if v464 != 0 {
				v466 = v465
			} else {
				v466 = v462
			}
			var v468 uint64
			if v38 == 0x3 {
				v468 = 1
			}
			v469 := v9 & v468
			var v471 uint64
			if v469 != 0 {
				v471 = v470
			} else {
				v471 = v467
			}
			var v473 uint64
			if v38 == 0x4 {
				v473 = 1
			}
			v474 := v15 & v473
			var v476 uint64
			if v474 != 0 {
				v476 = v475
			} else {
				v476 = v472
			}
			var v478 uint64
			if v38 == 0x5 {
				v478 = 1
			}
			v479 := v21 & v478
			var v481 uint64
			if v479 != 0 {
				v481 = v480
			} else {
				v481 = v477
			}
			var v483 uint64
			if v38 == 0x6 {
				v483 = 1
			}
			v484 := v27 & v483
			var v486 uint64
			if v484 != 0 {
				v486 = v485
			} else {
				v486 = v482
			}
			v488 := v27 & v468
			var v490 uint64
			if v488 != 0 {
				v490 = v489
			} else {
				v490 = v487
			}
			var v493 uint64
			if v2 != 0 {
				v493 = v492
			} else {
				v493 = v491
			}
			var v496 uint64
			if v2 != 0 {
				v496 = v495
			} else {
				v496 = v494
			}
			var v499 uint64
			if v2 != 0 {
				v499 = v498
			} else {
				v499 = v497
			}
			var v502 uint64
			if v43 != 0 {
				v502 = v501
			} else {
				v502 = v500
			}
			var v505 uint64
			if v43 != 0 {
				v505 = v504
			} else {
				v505 = v503
			}
			var v508 uint64
			if v43 != 0 {
				v508 = v507
			} else {
				v508 = v506
			}
			var v511 uint64
			if v2 != 0 {
				v511 = v510
			} else {
				v511 = v509
			}
			var v514 uint64
			if v2 != 0 {
				v514 = v513
			} else {
				v514 = v512
			}
			var v517 uint64
			if v2 != 0 {
				v517 = v516
			} else {
				v517 = v515
			}
			var v520 uint64
			if v115 != 0 {
				v520 = v519
			} else {
				v520 = v518
			}
			var v523 uint64
			if v115 != 0 {
				v523 = v522
			} else {
				v523 = v521
			}
			var v526 uint64
			if v115 != 0 {
				v526 = v525
			} else {
				v526 = v524
			}
			var v529 uint64
			if v122 != 0 {
				v529 = v528
			} else {
				v529 = v527
			}
			var v532 uint64
			if v122 != 0 {
				v532 = v531
			} else {
				v532 = v530
			}
			var v535 uint64
			if v122 != 0 {
				v535 = v534
			} else {
				v535 = v533
			}
			v536 := (v4 | v9)
			var v537 uint64
			if v4 != 0 {
				v537 = v52
			} else {
				v537 = v58
			}
			var v538 uint64
			if v4 != 0 {
				v538 = v56
			} else {
				v538 = v102
			}
			var v548 uint64
			if v0 == 0x6 {
				v548 = 1
			}
			s548 = v548
			s38 = v38
			s42 = v42
			s49 = v49
			s104 = v104
			s113 = v113
			s121 = v121
			s128 = v128
			s227 = v227
			s302 = v302
			s379 = v379
			s455 = v455
			s461 = v461
			s466 = v466
			s471 = v471
			s476 = v476
			s481 = v481
			s486 = v486
			s490 = v490
			s493 = v493
			s496 = v496
			s499 = v499
			s502 = v502
			s505 = v505
			s508 = v508
			s511 = v511
			s514 = v514
			s517 = v517
			s520 = v520
			s523 = v523
			s526 = v526
			s529 = v529
			s532 = v532
			s535 = v535
			s536 = v536
			s537 = v537
			s538 = v538
			s27 = v27
		}
		if s548 != 0 {
			break
		}
		if s536 != 0 {
			if addr := uint64(s537); addr < uint64(len(m1)) {
				m1[addr] = s538
			}
		}
		if s27 != 0 {
			if addr := uint64(v539); addr < uint64(len(m4)) {
				m4[addr] = v129
			}
		}
		if s27 != 0 {
			if addr := uint64(v541); addr < uint64(len(m4)) {
				m4[addr] = v149
			}
		}
		if s27 != 0 {
			if addr := uint64(v544); addr < uint64(len(m4)) {
				m4[addr] = v156
			}
		}
		if s27 != 0 {
			if addr := uint64(v547); addr < uint64(len(m4)) {
				m4[addr] = v163
			}
		}
		v0 = s38
		v5 = s42
		v10 = s49
		v50 = s104
		v28 = s113
		v16 = s121
		v22 = s128
		v129 = s227
		v149 = s302
		v156 = s379
		v163 = s455
		v456 = s461
		v462 = s466
		v467 = s471
		v472 = s476
		v477 = s481
		v482 = s486
		v487 = s490
		v491 = s493
		v494 = s496
		v497 = s499
		v500 = s502
		v503 = s505
		v506 = s508
		v509 = s511
		v512 = s514
		v515 = s517
		v518 = s520
		v521 = s523
		v524 = s526
		v527 = s529
		v530 = s532
		v533 = s535
	}
	vals[0] = v0
	vals[5] = v5
	vals[10] = v10
	vals[50] = v50
	vals[28] = v28
	vals[16] = v16
	vals[22] = v22
	vals[129] = v129
	vals[149] = v149
	vals[156] = v156
	vals[163] = v163
	vals[456] = v456
	vals[462] = v462
	vals[467] = v467
	vals[472] = v472
	vals[477] = v477
	vals[482] = v482
	vals[487] = v487
	vals[491] = v491
	vals[494] = v494
	vals[497] = v497
	vals[500] = v500
	vals[503] = v503
	vals[506] = v506
	vals[509] = v509
	vals[512] = v512
	vals[515] = v515
	vals[518] = v518
	vals[521] = v521
	vals[524] = v524
	vals[527] = v527
	vals[530] = v530
	vals[533] = v533
	return n
}

func run_aes_slice_all(vals []uint64, mems [][]uint64, max uint64) uint64 {
	_ = vals[110]
	m0 := mems[0]
	v0 := vals[0]
	v13 := vals[13]
	v33 := vals[33]
	v35 := vals[35]
	v39 := vals[39]
	v43 := vals[43]
	v44 := vals[44]
	v49 := vals[49]
	v52 := vals[52]
	v55 := vals[55]
	v58 := vals[58]
	v61 := vals[61]
	v62 := vals[62]
	v66 := vals[66]
	v69 := vals[69]
	v70 := vals[70]
	v73 := vals[73]
	v76 := vals[76]
	v81 := vals[81]
	v86 := vals[86]
	v91 := vals[91]
	v96 := vals[96]
	v100 := vals[100]
	v105 := vals[105]
	var n uint64
	for ; n < max; n++ {
		var v15 uint64
		if v13 == 0x0 {
			v15 = 1
		}
		var v17 uint64
		if v15 != 0 {
			v17 = 0x6
		} else {
			v17 = 0x3
		}
		var v25 uint64
		if addr := uint64(0x0); addr < uint64(len(m0)) {
			v25 = m0[addr] & 0xffff
		}
		v27 := (v25 - 0x1) & 0xffff
		var v28 uint64
		if v13 != 0x0 {
			v28 = 1
		}
		v30 := (v13 - 0x1) & 0xffff
		v37 := (v35 + 0x9) & 0xffffff
		v41 := (v39 + 0x1) & 0xffffff
		v47 := (v44 + 0x17) & 0xffffff
		v50 := (v49 + 0x1) & 0xffffff
		v53 := (v52 + v13) & 0xffffff
		v56 := (v55 + v27) & 0xffffff
		v59 := (v58 + 0x1) & 0xffffff
		v64 := (v62 + 0x27) & 0xffffff
		v67 := (v66 + 0x1) & 0xffffff
		v71 := (v70 + 0x3) & 0xffffff
		v74 := (v73 + 0x1) & 0xffffff
		v79 := (v76 + 0x1) & 0xffffff
		v84 := (v81 + 0x1) & 0xffffff
		v89 := (v86 + 0x1) & 0xffffff
		v94 := (v91 + 0x1) & 0xffffff
		v98 := (v96 + 0x1) & 0xffffff
		v103 := (v100 + 0x1) & 0xffffff
		v108 := (v105 + 0x1) & 0xffffff
		var s23, s32, s38, s42, s48, s51, s54, s57, s60, s65, s68, s72, s75, s80, s85, s90, s95, s99, s104, s109, s110 uint64
		switch v0 {
		case 0x0:
			v29 := 0x0 & v28
			v32 := v27
			v38 := v35
			v42 := v39
			v45 := (0x0 | v29)
			var v48 uint64
			if v45 != 0 {
				v48 = v47
			} else {
				v48 = v44
			}
			var v51 uint64
			if v45 != 0 {
				v51 = v50
			} else {
				v51 = v49
			}
			v54 := v53
			v57 := v56
			v60 := v59
			v65 := v62
			v68 := v66
			v72 := v71
			v75 := v74
			v80 := v76
			v85 := v81
			v90 := v86
			v95 := v91
			v99 := v96
			v104 := v100
			v109 := v108
			s110 = 0x0
			s23 = 0x1
			s32 = v32
			s38 = v38
			s42 = v42
			s48 = v48
			s51 = v51
			s54 = v54
			s57 = v57
			s60 = v60
			s65 = v65
			s68 = v68
			s72 = v72
			s75 = v75
			s80 = v80
			s85 = v85
			s90 = v90
			s95 = v95
			s99 = v99
			s104 = v104
			s109 = v109
		case 0x1:
			v29 := 0x0 & v28
			var v31 uint64
			if v29 != 0 {
				v31 = v30
			} else {
				v31 = v13
			}
			v32 := v31
			v38 := v35
			v42 := v39
			v45 := (0x0 | v29)
			var v48 uint64
			if v45 != 0 {
				v48 = v47
			} else {
				v48 = v44
			}
			var v51 uint64
			if v45 != 0 {
				v51 = v50
			} else {
				v51 = v49
			}
			v54 := v52
			v57 := v55
			v60 := v58
			v65 := v64
			v68 := v67
			v72 := v70
			v75 := v73
			v80 := v76
			v85 := v81
			v90 := v86
			v95 := v91
			v99 := v96
			v104 := v103
			v109 := v105
			s110 = 0x0
			s23 = 0x2
			s32 = v32
			s38 = v38
			s42 = v42
			s48 = v48
			s51 = v51
			s54 = v54
			s57 = v57
			s60 = v60
			s65 = v65
			s68 = v68
			s72 = v72
			s75 = v75
			s80 = v80
			s85 = v85
			s90 = v90
			s95 = v95
			s99 = v99
			s104 = v104
			s109 = v109
		case 0x2:
			v29 := 0x0 & v28
			var v31 uint64
			if v29 != 0 {
				v31 = v30
			} else {
				v31 = v13
			}
			v32 := v31
			v38 := v35
			v42 := v39
			v45 := (0x1 | v29)
			var v48 uint64
			if v45 != 0 {
				v48 = v47
			} else {
				v48 = v44
			}
			var v51 uint64
			if v45 != 0 {
				v51 = v50
			} else {
				v51 = v49
			}
			v54 := v52
			v57 := v55
			v60 := v58
			v65 := v62
			v68 := v66
			v72 := v70
			v75 := v73
			v80 := v76
			v85 := v81
			v90 := v86
			v95 := v91
			v99 := v98
			v104 := v100
			v109 := v105
			s110 = 0x0
			s23 = 0x3
			s32 = v32
			s38 = v38
			s42 = v42
			s48 = v48
			s51 = v51
			s54 = v54
			s57 = v57
			s60 = v60
			s65 = v65
			s68 = v68
			s72 = v72
			s75 = v75
			s80 = v80
			s85 = v85
			s90 = v90
			s95 = v95
			s99 = v99
			s104 = v104
			s109 = v109
		case 0x3:
			v29 := 0x0 & v28
			var v31 uint64
			if v29 != 0 {
				v31 = v30
			} else {
				v31 = v13
			}
			v32 := v31
			v38 := v37
			v42 := v41
			v45 := (0x0 | v29)
			var v48 uint64
			if v45 != 0 {
				v48 = v47
			} else {
				v48 = v44
			}
			var v51 uint64
			if v45 != 0 {
				v51 = v50
			} else {
				v51 = v49
			}
			v54 := v52
			v57 := v55
			v60 := v58
			v65 := v62
			v68 := v66
			v72 := v70
			v75 := v73
			v80 := v76
			v85 := v81
			v90 := v86
			v95 := v94
			v99 := v96
			v104 := v100
			v109 := v105
			s110 = 0x0
			s23 = 0x4
			s32 = v32
			s38 = v38
			s42 = v42
			s48 = v48
			s51 = v51
			s54 = v54
			s57 = v57
			s60 = v60
			s65 = v65
			s68 = v68
			s72 = v72
			s75 = v75
			s80 = v80
			s85 = v85
			s90 = v90
			s95 = v95
			s99 = v99
			s104 = v104
			s109 = v109
		case 0x4:
			v29 := 0x0 & v28
			var v31 uint64
			if v29 != 0 {
				v31 = v30
			} else {
				v31 = v13
			}
			v32 := v31
			v38 := v35
			v42 := v39
			v45 := (0x0 | v29)
			var v48 uint64
			if v45 != 0 {
				v48 = v47
			} else {
				v48 = v44
			}
			var v51 uint64
			if v45 != 0 {
				v51 = v50
			} else {
				v51 = v49
			}
			v54 := v52
			v57 := v55
			v60 := v58
			v65 := v62
			v68 := v66
			v72 := v70
			v75 := v73
			v80 := v76
			v85 := v81
			v90 := v89
			v95 := v91
			v99 := v96
			v104 := v100
			v109 := v105
			s110 = 0x0
			s23 = 0x5
			s32 = v32
			s38 = v38
			s42 = v42
			s48 = v48
			s51 = v51
			s54 = v54
			s57 = v57
			s60 = v60
			s65 = v65
			s68 = v68
			s72 = v72
			s75 = v75
			s80 = v80
			s85 = v85
			s90 = v90
			s95 = v95
			s99 = v99
			s104 = v104
			s109 = v109
		case 0x5:
			v18 := v17
			v19 := v18
			v20 := v19
			v21 := v20
			v22 := v21
			v23 := v22
			v29 := 0x1 & v28
			var v31 uint64
			if v29 != 0 {
				v31 = v30
			} else {
				v31 = v13
			}
			v32 := v31
			v38 := v35
			v42 := v39
			v45 := (0x0 | v29)
			var v48 uint64
			if v45 != 0 {
				v48 = v47
			} else {
				v48 = v44
			}
			var v51 uint64
			if v45 != 0 {
				v51 = v50
			} else {
				v51 = v49
			}
			v54 := v52
			v57 := v55
			v60 := v58
			v65 := v62
			v68 := v66
			v72 := v70
			v75 := v73
			var v77 uint64
			if v23 == 0x3 {
				v77 = 1
			}
			v78 := 0x1 & v77
			var v80 uint64
			if v78 != 0 {
				v80 = v79
			} else {
				v80 = v76
			}
			var v82 uint64
			if v23 == 0x6 {
				v82 = 1
			}
			v83 := 0x1 & v82
			var v85 uint64
			if v83 != 0 {
				v85 = v84
			} else {
				v85 = v81
			}
			var v87 uint64
			if v23 == 0x5 {
				v87 = 1
			}
			v88 := 0x0 & v87
			var v90 uint64
			if v88 != 0 {
				v90 = v89
			} else {
				v90 = v86
			}
			var v92 uint64
			if v23 == 0x4 {
				v92 = 1
			}
			v93 := 0x0 & v92
			var v95 uint64
			if v93 != 0 {
				v95 = v94
			} else {
				v95 = v91
			}
			v97 := 0x0 & v77
			var v99 uint64
			if v97 != 0 {
				v99 = v98
			} else {
				v99 = v96
			}
			var v101 uint64
			if v23 == 0x2 {
				v101 = 1
			}
			v102 := 0x0 & v101
			var v104 uint64
			if v102 != 0 {
				v104 = v103
			} else {
				v104 = v100
			}
			var v106 uint64
			if v23 == 0x1 {
				v106 = 1
			}
			v107 := 0x0 & v106
			var v109 uint64
			if v107 != 0 {
				v109 = v108
			} else {
				v109 = v105
			}
			s110 = 0x0
			s23 = v23
			s32 = v32
			s38 = v38
			s42 = v42
			s48 = v48
			s51 = v51
			s54 = v54
			s57 = v57
			s60 = v60
			s65 = v65
			s68 = v68
			s72 = v72
			s75 = v75
			s80 = v80
			s85 = v85
			s90 = v90
			s95 = v95
			s99 = v99
			s104 = v104
			s109 = v109
		case 0x6:
			v29 := 0x0 & v28
			var v31 uint64
			if v29 != 0 {
				v31 = v30
			} else {
				v31 = v13
			}
			v32 := v31
			v38 := v35
			v42 := v39
			v45 := (0x0 | v29)
			var v48 uint64
			if v45 != 0 {
				v48 = v47
			} else {
				v48 = v44
			}
			var v51 uint64
			if v45 != 0 {
				v51 = v50
			} else {
				v51 = v49
			}
			v54 := v52
			v57 := v55
			v60 := v58
			v65 := v62
			v68 := v66
			v72 := v70
			v75 := v73
			v80 := v76
			v85 := v81
			v90 := v86
			v95 := v91
			v99 := v96
			v104 := v100
			v109 := v105
			s110 = 0x1
			s23 = 0x6
			s32 = v32
			s38 = v38
			s42 = v42
			s48 = v48
			s51 = v51
			s54 = v54
			s57 = v57
			s60 = v60
			s65 = v65
			s68 = v68
			s72 = v72
			s75 = v75
			s80 = v80
			s85 = v85
			s90 = v90
			s95 = v95
			s99 = v99
			s104 = v104
			s109 = v109
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
			var v18 uint64
			if v12 != 0 {
				v18 = v17
			} else {
				v18 = v0
			}
			var v19 uint64
			if v10 != 0 {
				v19 = 0x5
			} else {
				v19 = v18
			}
			var v20 uint64
			if v8 != 0 {
				v20 = 0x4
			} else {
				v20 = v19
			}
			var v21 uint64
			if v6 != 0 {
				v21 = 0x3
			} else {
				v21 = v20
			}
			var v22 uint64
			if v4 != 0 {
				v22 = 0x2
			} else {
				v22 = v21
			}
			var v23 uint64
			if v2 != 0 {
				v23 = 0x1
			} else {
				v23 = v22
			}
			v29 := v12 & v28
			var v31 uint64
			if v29 != 0 {
				v31 = v30
			} else {
				v31 = v13
			}
			var v32 uint64
			if v2 != 0 {
				v32 = v27
			} else {
				v32 = v31
			}
			var v38 uint64
			if v8 != 0 {
				v38 = v37
			} else {
				v38 = v35
			}
			var v42 uint64
			if v8 != 0 {
				v42 = v41
			} else {
				v42 = v39
			}
			v45 := (v6 | v29)
			var v48 uint64
			if v45 != 0 {
				v48 = v47
			} else {
				v48 = v44
			}
			var v51 uint64
			if v45 != 0 {
				v51 = v50
			} else {
				v51 = v49
			}
			var v54 uint64
			if v2 != 0 {
				v54 = v53
			} else {
				v54 = v52
			}
			var v57 uint64
			if v2 != 0 {
				v57 = v56
			} else {
				v57 = v55
			}
			var v60 uint64
			if v2 != 0 {
				v60 = v59
			} else {
				v60 = v58
			}
			var v65 uint64
			if v4 != 0 {
				v65 = v64
			} else {
				v65 = v62
			}
			var v68 uint64
			if v4 != 0 {
				v68 = v67
			} else {
				v68 = v66
			}
			var v72 uint64
			if v2 != 0 {
				v72 = v71
			} else {
				v72 = v70
			}
			var v75 uint64
			if v2 != 0 {
				v75 = v74
			} else {
				v75 = v73
			}
			var v77 uint64
			if v23 == 0x3 {
				v77 = 1
			}
			v78 := v12 & v77
			var v80 uint64
			if v78 != 0 {
				v80 = v79
			} else {
				v80 = v76
			}
			var v82 uint64
			if v23 == 0x6 {
				v82 = 1
			}
			v83 := v12 & v82
			var v85 uint64
			if v83 != 0 {
				v85 = v84
			} else {
				v85 = v81
			}
			var v87 uint64
			if v23 == 0x5 {
				v87 = 1
			}
			v88 := v10 & v87
			var v90 uint64
			if v88 != 0 {
				v90 = v89
			} else {
				v90 = v86
			}
			var v92 uint64
			if v23 == 0x4 {
				v92 = 1
			}
			v93 := v8 & v92
			var v95 uint64
			if v93 != 0 {
				v95 = v94
			} else {
				v95 = v91
			}
			v97 := v6 & v77
			var v99 uint64
			if v97 != 0 {
				v99 = v98
			} else {
				v99 = v96
			}
			var v101 uint64
			if v23 == 0x2 {
				v101 = 1
			}
			v102 := v4 & v101
			var v104 uint64
			if v102 != 0 {
				v104 = v103
			} else {
				v104 = v100
			}
			var v106 uint64
			if v23 == 0x1 {
				v106 = 1
			}
			v107 := v2 & v106
			var v109 uint64
			if v107 != 0 {
				v109 = v108
			} else {
				v109 = v105
			}
			var v110 uint64
			if v0 == 0x6 {
				v110 = 1
			}
			s110 = v110
			s23 = v23
			s32 = v32
			s38 = v38
			s42 = v42
			s48 = v48
			s51 = v51
			s54 = v54
			s57 = v57
			s60 = v60
			s65 = v65
			s68 = v68
			s72 = v72
			s75 = v75
			s80 = v80
			s85 = v85
			s90 = v90
			s95 = v95
			s99 = v99
			s104 = v104
			s109 = v109
		}
		if s110 != 0 {
			break
		}
		v0 = s23
		v13 = s32
		v33 = 0x0
		v35 = s38
		v39 = s42
		v43 = 0x0
		v44 = s48
		v49 = s51
		v52 = s54
		v55 = s57
		v58 = s60
		v61 = 0x0
		v62 = s65
		v66 = s68
		v69 = 0x0
		v70 = s72
		v73 = s75
		v76 = s80
		v81 = s85
		v86 = s90
		v91 = s95
		v96 = s99
		v100 = s104
		v105 = s109
	}
	vals[0] = v0
	vals[13] = v13
	vals[33] = v33
	vals[35] = v35
	vals[39] = v39
	vals[43] = v43
	vals[44] = v44
	vals[49] = v49
	vals[52] = v52
	vals[55] = v55
	vals[58] = v58
	vals[61] = v61
	vals[62] = v62
	vals[66] = v66
	vals[69] = v69
	vals[70] = v70
	vals[73] = v73
	vals[76] = v76
	vals[81] = v81
	vals[86] = v86
	vals[91] = v91
	vals[96] = v96
	vals[100] = v100
	vals[105] = v105
	return n
}

func run_aes_slice_t42(vals []uint64, mems [][]uint64, max uint64) uint64 {
	_ = vals[67]
	m0 := mems[0]
	v0 := vals[0]
	v13 := vals[13]
	v33 := vals[33]
	v37 := vals[37]
	v41 := vals[41]
	v46 := vals[46]
	v49 := vals[49]
	v52 := vals[52]
	v57 := vals[57]
	v62 := vals[62]
	var n uint64
	for ; n < max; n++ {
		var v15 uint64
		if v13 == 0x0 {
			v15 = 1
		}
		var v17 uint64
		if v15 != 0 {
			v17 = 0x6
		} else {
			v17 = 0x3
		}
		var v25 uint64
		if addr := uint64(0x0); addr < uint64(len(m0)) {
			v25 = m0[addr] & 0xffff
		}
		v27 := (v25 - 0x1) & 0xffff
		var v28 uint64
		if v13 != 0x0 {
			v28 = 1
		}
		v30 := (v13 - 0x1) & 0xffff
		v35 := (v33 + 0x9) & 0xffffff
		v39 := (v37 + 0x1) & 0xffffff
		v44 := (v41 + 0x17) & 0xffffff
		v47 := (v46 + 0x1) & 0xffffff
		v50 := (v49 + v27) & 0xffffff
		v55 := (v52 + 0x1) & 0xffffff
		v60 := (v57 + 0x1) & 0xffffff
		v65 := (v62 + 0x1) & 0xffffff
		var s23, s32, s36, s40, s45, s48, s51, s56, s61, s66, s67 uint64
		switch v0 {
		case 0x0:
			v29 := 0x0 & v28
			v32 := v27
			v36 := v33
			v40 := v37
			v42 := (0x0 | v29)
			var v45 uint64
			if v42 != 0 {
				v45 = v44
			} else {
				v45 = v41
			}
			var v48 uint64
			if v42 != 0 {
				v48 = v47
			} else {
				v48 = v46
			}
			v51 := v50
			v56 := v52
			v61 := v57
			v66 := v62
			s67 = 0x0
			s23 = 0x1
			s32 = v32
			s36 = v36
			s40 = v40
			s45 = v45
			s48 = v48
			s51 = v51
			s56 = v56
			s61 = v61
			s66 = v66
		case 0x1:
			v29 := 0x0 & v28
			var v31 uint64
			if v29 != 0 {
				v31 = v30
			} else {
				v31 = v13
			}
			v32 := v31
			v36 := v33
			v40 := v37
			v42 := (0x0 | v29)
			var v45 uint64
			if v42 != 0 {
				v45 = v44
			} else {
				v45 = v41
			}
			var v48 uint64
			if v42 != 0 {
				v48 = v47
			} else {
				v48 = v46
			}
			v51 := v49
			v56 := v52
			v61 := v57
			v66 := v62
			s67 = 0x0
			s23 = 0x2
			s32 = v32
			s36 = v36
			s40 = v40
			s45 = v45
			s48 = v48
			s51 = v51
			s56 = v56
			s61 = v61
			s66 = v66
		case 0x2:
			v29 := 0x0 & v28
			var v31 uint64
			if v29 != 0 {
				v31 = v30
			} else {
				v31 = v13
			}
			v32 := v31
			v36 := v33
			v40 := v37
			v42 := (0x1 | v29)
			var v45 uint64
			if v42 != 0 {
				v45 = v44
			} else {
				v45 = v41
			}
			var v48 uint64
			if v42 != 0 {
				v48 = v47
			} else {
				v48 = v46
			}
			v51 := v49
			v56 := v52
			v61 := v57
			v66 := v62
			s67 = 0x0
			s23 = 0x3
			s32 = v32
			s36 = v36
			s40 = v40
			s45 = v45
			s48 = v48
			s51 = v51
			s56 = v56
			s61 = v61
			s66 = v66
		case 0x3:
			v29 := 0x0 & v28
			var v31 uint64
			if v29 != 0 {
				v31 = v30
			} else {
				v31 = v13
			}
			v32 := v31
			v36 := v35
			v40 := v39
			v42 := (0x0 | v29)
			var v45 uint64
			if v42 != 0 {
				v45 = v44
			} else {
				v45 = v41
			}
			var v48 uint64
			if v42 != 0 {
				v48 = v47
			} else {
				v48 = v46
			}
			v51 := v49
			v56 := v52
			v61 := v57
			v66 := v65
			s67 = 0x0
			s23 = 0x4
			s32 = v32
			s36 = v36
			s40 = v40
			s45 = v45
			s48 = v48
			s51 = v51
			s56 = v56
			s61 = v61
			s66 = v66
		case 0x4:
			v29 := 0x0 & v28
			var v31 uint64
			if v29 != 0 {
				v31 = v30
			} else {
				v31 = v13
			}
			v32 := v31
			v36 := v33
			v40 := v37
			v42 := (0x0 | v29)
			var v45 uint64
			if v42 != 0 {
				v45 = v44
			} else {
				v45 = v41
			}
			var v48 uint64
			if v42 != 0 {
				v48 = v47
			} else {
				v48 = v46
			}
			v51 := v49
			v56 := v52
			v61 := v60
			v66 := v62
			s67 = 0x0
			s23 = 0x5
			s32 = v32
			s36 = v36
			s40 = v40
			s45 = v45
			s48 = v48
			s51 = v51
			s56 = v56
			s61 = v61
			s66 = v66
		case 0x5:
			v18 := v17
			v19 := v18
			v20 := v19
			v21 := v20
			v22 := v21
			v23 := v22
			v29 := 0x1 & v28
			var v31 uint64
			if v29 != 0 {
				v31 = v30
			} else {
				v31 = v13
			}
			v32 := v31
			v36 := v33
			v40 := v37
			v42 := (0x0 | v29)
			var v45 uint64
			if v42 != 0 {
				v45 = v44
			} else {
				v45 = v41
			}
			var v48 uint64
			if v42 != 0 {
				v48 = v47
			} else {
				v48 = v46
			}
			v51 := v49
			var v53 uint64
			if v23 == 0x3 {
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
			if v23 == 0x5 {
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
			if v23 == 0x4 {
				v63 = 1
			}
			v64 := 0x0 & v63
			var v66 uint64
			if v64 != 0 {
				v66 = v65
			} else {
				v66 = v62
			}
			s67 = 0x0
			s23 = v23
			s32 = v32
			s36 = v36
			s40 = v40
			s45 = v45
			s48 = v48
			s51 = v51
			s56 = v56
			s61 = v61
			s66 = v66
		case 0x6:
			v29 := 0x0 & v28
			var v31 uint64
			if v29 != 0 {
				v31 = v30
			} else {
				v31 = v13
			}
			v32 := v31
			v36 := v33
			v40 := v37
			v42 := (0x0 | v29)
			var v45 uint64
			if v42 != 0 {
				v45 = v44
			} else {
				v45 = v41
			}
			var v48 uint64
			if v42 != 0 {
				v48 = v47
			} else {
				v48 = v46
			}
			v51 := v49
			v56 := v52
			v61 := v57
			v66 := v62
			s67 = 0x1
			s23 = 0x6
			s32 = v32
			s36 = v36
			s40 = v40
			s45 = v45
			s48 = v48
			s51 = v51
			s56 = v56
			s61 = v61
			s66 = v66
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
			var v18 uint64
			if v12 != 0 {
				v18 = v17
			} else {
				v18 = v0
			}
			var v19 uint64
			if v10 != 0 {
				v19 = 0x5
			} else {
				v19 = v18
			}
			var v20 uint64
			if v8 != 0 {
				v20 = 0x4
			} else {
				v20 = v19
			}
			var v21 uint64
			if v6 != 0 {
				v21 = 0x3
			} else {
				v21 = v20
			}
			var v22 uint64
			if v4 != 0 {
				v22 = 0x2
			} else {
				v22 = v21
			}
			var v23 uint64
			if v2 != 0 {
				v23 = 0x1
			} else {
				v23 = v22
			}
			v29 := v12 & v28
			var v31 uint64
			if v29 != 0 {
				v31 = v30
			} else {
				v31 = v13
			}
			var v32 uint64
			if v2 != 0 {
				v32 = v27
			} else {
				v32 = v31
			}
			var v36 uint64
			if v8 != 0 {
				v36 = v35
			} else {
				v36 = v33
			}
			var v40 uint64
			if v8 != 0 {
				v40 = v39
			} else {
				v40 = v37
			}
			v42 := (v6 | v29)
			var v45 uint64
			if v42 != 0 {
				v45 = v44
			} else {
				v45 = v41
			}
			var v48 uint64
			if v42 != 0 {
				v48 = v47
			} else {
				v48 = v46
			}
			var v51 uint64
			if v2 != 0 {
				v51 = v50
			} else {
				v51 = v49
			}
			var v53 uint64
			if v23 == 0x3 {
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
			if v23 == 0x5 {
				v58 = 1
			}
			v59 := v10 & v58
			var v61 uint64
			if v59 != 0 {
				v61 = v60
			} else {
				v61 = v57
			}
			var v63 uint64
			if v23 == 0x4 {
				v63 = 1
			}
			v64 := v8 & v63
			var v66 uint64
			if v64 != 0 {
				v66 = v65
			} else {
				v66 = v62
			}
			var v67 uint64
			if v0 == 0x6 {
				v67 = 1
			}
			s67 = v67
			s23 = v23
			s32 = v32
			s36 = v36
			s40 = v40
			s45 = v45
			s48 = v48
			s51 = v51
			s56 = v56
			s61 = v61
			s66 = v66
		}
		if s67 != 0 {
			break
		}
		v0 = s23
		v13 = s32
		v33 = s36
		v37 = s40
		v41 = s45
		v46 = s48
		v49 = s51
		v52 = s56
		v57 = s61
		v62 = s66
	}
	vals[0] = v0
	vals[13] = v13
	vals[33] = v33
	vals[37] = v37
	vals[41] = v41
	vals[46] = v46
	vals[49] = v49
	vals[52] = v52
	vals[57] = v57
	vals[62] = v62
	return n
}

func init() {
	rtl.RegisterNative("c1cfd0a9f9e3874bf7607146f4d35f5f95c95aee116e96996a5a694f48c3147d", "aes", run_aes)
	rtl.RegisterNative("b65aa6345056b0f2ad09373af2a765998a422edd7d1412b125ce3d568df52287", "aes_ins", run_aes_ins)
	rtl.RegisterNative("8ae77398c506c97b5c505003997181f466373b6f869120551979a74ac541b759", "aes_pruned", run_aes_pruned)
	rtl.RegisterNative("22f29b2846a49eaca86ca01e88524a0044aa72e94d1bcc840c3a2b5f9856d219", "aes_slice_all", run_aes_slice_all)
	rtl.RegisterNative("a276e22e970259a3da68a3d092bfa716d99fc3af004f0f8a9e536dacd8de8dcb", "aes_slice_t42", run_aes_slice_t42)
}
