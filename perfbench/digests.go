package main

// pinnedDigests are the SHA-256 digests of the bytes each paper
// artifact's Render writes, taken from the program at the commit that
// added this benchmark. The generated figure is not pinned: its spec
// follows the seed, so each run checks it against a local render made
// in set-up.
var pinnedDigests = map[string]string{
	"table1": "a3c43cc8cf92e55a44107ec70ba99c895db7aa3acaa55f88e6bd52fd0220e112",
	"fig4":   "74fc2a7313ed50dbeac9bfb9d4d03341f9d394e8849f09ce2113303180eb93cd",
	"fig5":   "58108341a2cb9151894d349c586c21631c89a1953ac3107fad833eee4a151419",
	"fig6":   "ae070e899e948ab970cd5e0943beaf98c73be68c2b8a91ae4d3b89e21cdf2f57",
	"fig7":   "39184f4bebd0d6a66a58e59de5588f023ace79324f23fae1d7105972ae6b8dc3",
	"fig8":   "116e990c98bae35c144ca805bc6a56ba45bf0b89a11230dacb35ba94bf9ec58b",
	"fig9":   "9394d78af2cabdf4023e7ef6654726ef29e5d8d8ff992b3a6b00226b5d6b5a4d",
}
