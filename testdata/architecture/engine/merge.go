// want file
package engine
